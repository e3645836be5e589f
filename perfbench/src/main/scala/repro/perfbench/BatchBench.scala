package repro.perfbench

import scala.collection.mutable.ArrayBuffer
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core.OnlineSTL
import repro.jobs.JobSession
import repro.streaming.{MetricEvent, OnlineSTLStreaming}

/** `batch-m10` and `batch-m1000`: repeated `decomposeBatch` actions over one
  * persisted input, each action's output checked in full.
  */
object BatchBench {
  val SetupRounds = 3
  val MinActions = 3
  val ShuffleOnlyActions = 3

  def run(wl: Workload, seed: Long, seconds: Double, trace: Trace, slots: Int): Outcome = {
    val keys = (0 until wl.keys).map(_.toLong)
    val sample = Workload.sampleKeys(keys, seed, wl.samples)
    val (sessionS, spark) = Stats.timed(trace("setup", "session")(JobSession.get(s"perfbench-${wl.name}")))
    spark.sparkContext.setLogLevel("WARN")
    val tasks = new TaskStats
    if (trace.enabled) spark.sparkContext.addSparkListener(tasks)
    try {
      var attempted = 0L
      var failed = 0L
      def decompose(input: Dataset[MetricEvent], action: String): Array[KeySummary] = {
        import spark.implicits._
        spark.sparkContext.setLocalProperty(TaskStats.ActionKey, action)
        try {
          OnlineSTLStreaming.decomposeBatch(input, Seq(wl.m))
            .mapPartitions(Check.summarize(sample)).collect()
        } finally spark.sparkContext.setLocalProperty(TaskStats.ActionKey, null)
      }
      /** Rows the action emitted, after checking them against `expectedKeys`. */
      def check(parts: Array[KeySummary], expectedKeys: Seq[Long]): Long = {
        val ledger = new Ledger(wl.m, seed)
        ledger.add(parts)
        val (a, f) = ledger.result(expectedKeys.map(_ -> wl.points).toMap)
        attempted += a; failed += f
        ledger.rowsSeen
      }

      // Set-up: input materialization and a JIT warm-up action on an eighth
      // of the keys, done SetupRounds times; setup_s takes the median round.
      var input: Dataset[MetricEvent] = null
      val warmKeys = keys.take(math.max(1, wl.keys / 8))
      val lastWarmKey = warmKeys.last
      val rounds = (1 to SetupRounds).map { r =>
        Stats.timed(trace("setup", s"round $r") {
          if (input != null) input.unpersist(blocking = true)
          input = trace("gen", "materialize")(materialize(spark, wl, seed))
          val warm = input.filter(_.seriesId <= lastWarmKey)
          check(trace("dataflow", "warm-up")(decompose(warm, s"warmup-$r")), warmKeys)
        })._1
      }
      val setupS = sessionS + Stats.median(rounds.toArray)

      val probe = if (trace.enabled) Some(CoreProbe.run(wl.m, seed, trace)) else None

      val gc0 = Jvm.gcMs
      val times = ArrayBuffer.empty[Double]
      var rows = 0L
      val start = System.nanoTime()
      var checking = 0L // checks run between actions, outside the measured time
      while (times.size < MinActions || (System.nanoTime() - start - checking) / 1e9 < seconds) {
        val (s, parts) = Stats.timed(trace("dataflow", "decompose") {
          decompose(input, s"decompose-${times.size}")
        })
        times += s
        val c0 = System.nanoTime()
        rows += check(parts, keys)
        checking += System.nanoTime() - c0
      }
      val gcMs = Jvm.gcMs - gc0
      val heapMb = Jvm.heapMbAfterGc

      val e2e = Seq(
        Metric("setup_s", setupS, "s"),
        // rows of one action over the median action time: one slow action
        // (a descheduled task holds up its whole action) does not set it
        Metric("throughput_eps", rows.toDouble / times.size / Stats.median(times.toArray), "events/s"),
        Metric("latency_ms_p50", Stats.quantile(times.toArray, 0.5) * 1e3, "ms"),
        Metric("latency_ms_p95", Stats.quantile(times.toArray, 0.95) * 1e3, "ms"),
        Metric("state_bytes_per_key", keyStateBytes(wl, seed, sample.head), "bytes"))

      val layers = probe.map { p =>
        val shuffleOnly = (1 to ShuffleOnlyActions).map { i =>
          import spark.implicits._
          Stats.timed(trace("dataflow", "shuffle-only") {
            spark.sparkContext.setLocalProperty(TaskStats.ActionKey, s"shuffle-$i")
            try input.groupByKey(_.seriesId).mapGroups((k, it) => (k, it.size)).collect()
            finally spark.sparkContext.setLocalProperty(TaskStats.ActionKey, null)
          })._1
        }
        tasks.await(_.startsWith("decompose-"))
        val decomposeS = Stats.median(times.toArray)
        // single-threaded core.stl work for one action's input, over the
        // CPU time the dataflow had for it
        val coreWorkS = wl.keys * (p.initMsPerKey / 1e3 + (wl.points - 4 * wl.m) * p.updateNsPerPoint / 1e9)
        Layers.core(p) ++ Layers.tasks(tasks.summary(_.startsWith("decompose-"))) ++ Seq(
          Metric("dataflow.decompose_s", decomposeS, "s"),
          Metric("dataflow.shuffle_only_s", Stats.median(shuffleOnly.toArray), "s"),
          Metric("dataflow.core_share", coreWorkS / (decomposeS * slots), "ratio")) ++
          Layers.jvm(heapMb, gcMs.toDouble)
      }.getOrElse(Nil)

      Outcome(attempted, failed, e2e, layers, Seq(
        "keys" -> wl.keys, "points_per_key" -> wl.points, "m" -> wl.m,
        "actions" -> times.size, "latency_samples" -> times.size, "action_s" -> times,
        "latency_basis" -> "wall time of one decomposeBatch action over the whole input",
        "setup_rounds_s" -> rounds))
    } finally spark.stop()
  }

  /** The workload's input, generated in the dataflow and persisted. */
  def materialize(spark: SparkSession, wl: Workload, seed: Long): Dataset[MetricEvent] = {
    import spark.implicits._
    val n = wl.points.toLong
    val m = wl.m
    val ds = spark.range(wl.keys * n).map { id =>
      val key = id / n
      val t = id % n
      MetricEvent(key, t, Workload.value(seed, key, t, m))
    }.persist(StorageLevel.MEMORY_ONLY)
    ds.count()
    ds
  }

  /** Java-serialized bytes of one key's `OnlineSTL` after all its points:
    * the state the keyed map holds per key when the batch ends.
    */
  def keyStateBytes(wl: Workload, seed: Long, key: Long): Double = {
    val stl = new OnlineSTL(Seq(wl.m))
    (0 until wl.points).foreach(t => stl.push(Workload.value(seed, key, t.toLong, wl.m)))
    CoreProbe.serializedBytes(stl).toDouble
  }
}
