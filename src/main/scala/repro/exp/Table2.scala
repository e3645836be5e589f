package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core.{OnlineSTL, TrendFilter, TrendKernel}
import repro.data.TimeSeriesGen
import repro.streaming.OnlineSTLStreaming.{decomposeBatch, stateRowBytes, syntheticEvents}

/** Table 2 — distributed-dataflow performance of OnlineSTL vs seasonality
  * (10 / 100 / 1000 / 10000). The paper runs 100K series on a 128-vCPU Flink
  * cluster with checkpointing off and reports throughput per task slot, JVM
  * heap, and total events/s. Our substrate is the Spark `flatMapGroups`
  * dataflow on local[*]; series/point counts are scaled so each row finishes
  * in under ~1 minute while still exercising full init + online phases per
  * key (DESIGN.md substitution 2). Memory is reported as `stateBytes`, the
  * encoded state record one key holds; `heapUsedGB` is a secondary figure
  * (heap in use without a GC, so it counts garbage too).
  *
  * The paper rows run OnlineSTL with the paper's ring-dot trend filters
  * (`kernel = TrendFilter`, the default here), whose O(Σ m_p) per-point cost
  * is what makes throughput fall with seasonality. Rows with
  * `kernel = SlidingTricube` run the shipped default, the O(1) sliding
  * filters, on the same per-key path (beyond the paper).
  */
object Table2 {

  final case class Row(seasonality: Int, kernel: TrendKernel, nSeries: Int, pointsPerSeries: Int,
                       totalPoints: Long, elapsedSec: Double,
                       throughputPerCore: Double, totalEventsPerSec: Double,
                       stateBytes: Int, heapUsedGB: Double)

  /** Paper Table 2 for EXPERIMENTS.md diffing: (throughput/slot, heap GB, total/s). */
  val paper: Map[Int, (Double, Double, Double)] = Map(
    10 -> (85000.0, 24.0, 10.1e6), 100 -> (69000.0, 28.0, 8.3e6),
    1000 -> (25000.0, 36.0, 3.0e6), 10000 -> (3600.0, 108.0, 0.44e6))

  /** Series count per seasonality, scaled to the local box: each series needs
    * 4m init points, so large seasonalities use fewer keys (as in production,
    * where key count × state size is bounded by memory). Small seasonalities
    * get long series — per-point filter cost is tiny there, so short series
    * would measure per-key dataflow overhead instead of the algorithm.
    */
  def defaultConfig(seasonality: Int): (Int, Int) = seasonality match {
    case m if m <= 10   => (500, 10000)
    case m if m <= 100  => (200, 10000)
    case m if m <= 1000 => (64, 8 * m)
    case m              => (16, 5 * m)
  }

  def run(spark: SparkSession, seasonalities: Seq[Int] = Seq(10, 100, 1000, 10000),
          config: Int => (Int, Int) = defaultConfig, kernel: TrendKernel = TrendFilter): Seq[Row] = {
    val cores = spark.sparkContext.defaultParallelism
    // Warm JIT + Catalyst codegen so the first measured row is not charged
    // for compilation (the paper likewise measures steady state). Needs to be
    // big enough that the per-point hot path reaches C2-compiled steady
    // state — a few hundred thousand points.
    for (warmM <- Seq(10, 200))
      decomposeBatch(syntheticEvents(spark, 100, 5000, warmM), Seq(warmM), kernel).count()
    seasonalities.map { m =>
      val (nSeries, pts) = config(m)
      val events = syntheticEvents(spark, nSeries, pts, m)
        .repartition(cores).persist()
      val total = nSeries.toLong * pts
      try {
        // Materialize the input first: the source must not be the measured
        // bottleneck (paper §6, "rate of ingestion set high").
        require(events.count() == total)
        val t0 = System.nanoTime()
        val outCount = decomposeBatch(events, Seq(m), kernel).count()
        val sec = (System.nanoTime() - t0) / 1e9
        require(outCount == total, s"expected $total decomposed rows, got $outCount")
        val rt = Runtime.getRuntime
        val heapGB = (rt.totalMemory() - rt.freeMemory()) / 1e9
        Row(m, kernel, nSeries, pts, total, sec, total / sec / cores, total / sec,
            keyStateBytes(m, pts, kernel), heapGB)
      } finally events.unpersist()
    }
  }

  /** Bytes of series 0's state record after all its points, as the
    * streaming deployment's state store keeps it per key.
    */
  private def keyStateBytes(m: Int, points: Int, kernel: TrendKernel): Int = {
    val stl = new OnlineSTL(Seq(m), kernel)
    (0 until points).foreach(t => stl.push(TimeSeriesGen.metricPoint(0L, t.toLong, m)))
    stateRowBytes(stl.state)
  }

  /** One line per row; sliding-filter rows are marked as beyond the paper
    * and carry no paper figure.
    */
  def format(rows: Seq[Row]): String = {
    val header = f"${"Seasonality"}%11s ${"filter"}%-22s ${"series"}%7s ${"pts/series"}%10s ${"elapsed_s"}%10s " +
      f"${"thpt/core"}%12s ${"total_ev/s"}%12s ${"state_B/key"}%11s ${"heap_GB"}%8s " +
      f"${"paper thpt/slot"}%15s"
    val body = rows.map { r =>
      val p = paper.get(r.seasonality).filter(_ => r.kernel == TrendFilter).map(t => f"${t._1}%.0f").getOrElse("-")
      val filter = if (r.kernel == TrendFilter) "paper (ring dot)" else "sliding (beyond-paper)"
      f"${r.seasonality}%11d $filter%-22s ${r.nSeries}%7d ${r.pointsPerSeries}%10d ${r.elapsedSec}%10.2f " +
        f"${r.throughputPerCore}%12.0f ${r.totalEventsPerSec}%12.0f ${r.stateBytes}%11d " +
        f"${r.heapUsedGB}%8.2f $p%15s"
    }
    (header +: body).mkString("\n")
  }
}
