package repro.exp

import repro.baselines._
import repro.core.OnlineSTL
import repro.data.TimeSeriesGen

/** Table 1 / Figure 2 — single-node throughput of OnlineSTL vs the online
  * counterparts of every batch algorithm, on data with daily seasonality
  * (m = 1440, minutely aggregation) processed over a sliding window of
  * 4·seasonality (paper §7.2). Throughput = decomposed points per second per
  * core. Slow algorithms are timed over a handful of update steps (their
  * per-point cost is seconds; more steps would change nothing but the wait).
  */
object Table1 {

  final case class Row(algorithm: String, throughputPerSec: Double,
                       paperClass: String, stepsMeasured: Int)

  /** Paper Table 1 throughput classes for EXPERIMENTS.md diffing. */
  val paperClasses: Map[String, String] = Map(
    "stl" -> "O(100)", "MSTL" -> "O(100)", "TBATS" -> "O(1)", "STR" -> "O(1)",
    "SSA" -> "O(1)", "RobustSTL" -> "O(1)", "frobustSTL" -> "O(1)",
    "OnlineSTL" -> "O(10,000)")

  /** Build the benchmark series: enough points for the 4m window plus the
    * measured steps, from the synthetic metric generator.
    */
  private def series(seasonality: Int, extra: Int): Array[Double] =
    Array.tabulate(4 * seasonality + extra)(t =>
      TimeSeriesGen.metricPoint(1L, t.toLong, seasonality))

  def run(seasonality: Int = 1440,
          onlineSTLPoints: Int = 50000,
          stepsFast: Int = 10,
          stepsSlow: Int = 2): Seq[Row] = {
    val periods = Seq(seasonality)

    // OnlineSTL: init on 4m, then time raw online updates.
    val onlineRow = {
      val xs = series(seasonality, onlineSTLPoints)
      val stl = new OnlineSTL(periods)
      var i = 0
      while (i < 4 * seasonality) { stl.push(xs(i)); i += 1 }
      val t0 = System.nanoTime()
      while (i < xs.length) { stl.push(xs(i)); i += 1 }
      val sec = (System.nanoTime() - t0) / 1e9
      Row("OnlineSTL", onlineSTLPoints / sec, paperClasses("OnlineSTL"), onlineSTLPoints)
    }

    // Batch algorithms in online-counterpart mode. (label, impl, steps)
    val batchSpecs: Seq[(String, Decomposer, Int)] = Seq(
      ("stl",        new BatchSTL(),                      stepsFast),
      ("MSTL",       new MSTL(),                          stepsFast),
      ("TBATS",      new TBATS(),                         stepsSlow),
      ("STR",        new STR(),                           stepsSlow),
      ("SSA",        new SSA(),                           stepsSlow),
      ("RobustSTL",  new RobustSTL(),                     stepsSlow),
      ("frobustSTL", new RobustSTL(multiSeasonal = true), stepsSlow),
    )
    val batchRows = batchSpecs.map { case (label, algo, steps) =>
      val wrapper = new OnlineCounterpart(algo)
      val xs = series(seasonality, steps + 8)
      val spp = wrapper.secondsPerPoint(xs, periods, steps)
      Row(label, 1.0 / spp, paperClasses.getOrElse(label, "?"), steps)
    }
    (onlineRow +: batchRows).sortBy(-_.throughputPerSec)
  }

  def format(rows: Seq[Row]): String = {
    val header = f"${"Algorithm"}%-12s ${"Throughput/s"}%14s ${"Paper class"}%12s ${"steps"}%6s"
    val body = rows.map(r =>
      f"${r.algorithm}%-12s ${r.throughputPerSec}%14.1f ${r.paperClass}%12s ${r.stepsMeasured}%6d")
    (header +: body).mkString("\n")
  }
}
