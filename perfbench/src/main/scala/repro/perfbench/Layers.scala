package repro.perfbench

/** The per-layer metrics of a traced run. Every workload reports every name;
  * a layer that is not on a workload's path reports 0.
  */
object Layers {

  val names: Seq[(String, String)] = Seq(
    "core.kernel.dot_ns.l4m" -> "ns", "core.kernel.dot_ns.l3m" -> "ns", "core.kernel.dot_ns.lm" -> "ns",
    "core.kernel.symmetric_ms" -> "ms",
    "core.stl.update_ns_per_point" -> "ns", "core.stl.init_ms_per_key" -> "ms",
    "core.stl.alloc_bytes_per_point" -> "bytes", "core.stl.state_serialized_bytes" -> "bytes",
    "dataflow.decompose_s" -> "s", "dataflow.shuffle_only_s" -> "s", "dataflow.core_share" -> "ratio",
    "dataflow.tasks" -> "count", "dataflow.task_skew" -> "ratio", "dataflow.gc_frac" -> "ratio",
    "dataflow.shuffle_bytes" -> "bytes",
    "stream.batch_ms_p50" -> "ms", "stream.add_batch_ms_p50" -> "ms", "stream.wal_commit_ms_p50" -> "ms",
    "stream.commit_offsets_ms_p50" -> "ms", "stream.query_planning_ms_p50" -> "ms",
    "stream.state_commit_ms_p50" -> "ms", "stream.state_update_ms_p50" -> "ms",
    "stream.state_rows_updated" -> "count", "stream.rows_per_batch_p50" -> "count", "stream.batches" -> "count",
    "gen.lateness_ms_max" -> "ms", "gen.backlog_events_max" -> "count", "gen.backlog_growth_events" -> "count",
    "jvm.heap_mb_after_gc" -> "MiB", "jvm.gc_ms" -> "ms") ++
    Seq("run", "setup", "gen", "dataflow", "stream", "core.kernel", "core.stl").map(l => s"self_ms.$l" -> "ms") ++
    Seq("setup_s" -> "s", "throughput_eps" -> "events/s", "latency_ms_p50" -> "ms", "latency_ms_p95" -> "ms",
        "state_bytes_per_key" -> "bytes").map { case (n, u) => s"e2e.$n" -> u } ++
    Seq("trace.spans" -> "count")

  /** `ms` in the order of [[names]], with 0 for every name not measured. */
  def complete(ms: Seq[Metric]): Seq[Metric] = {
    val byName = ms.map(x => x.name -> x).toMap
    require(byName.keySet.subsetOf(names.map(_._1).toSet), s"unlisted metrics: ${byName.keySet -- names.map(_._1)}")
    names.map { case (n, u) => byName.getOrElse(n, Metric(n, 0.0, u)) }
  }

  def core(p: CoreProbe.Result): Seq[Metric] =
    p.dotNs.map { case (l, v) => Metric(s"core.kernel.dot_ns.$l", v, "ns") } ++ Seq(
      Metric("core.kernel.symmetric_ms", p.symmetricMs, "ms"),
      Metric("core.stl.update_ns_per_point", p.updateNsPerPoint, "ns"),
      Metric("core.stl.init_ms_per_key", p.initMsPerKey, "ms"),
      Metric("core.stl.alloc_bytes_per_point", p.allocBytesPerPoint, "bytes"),
      Metric("core.stl.state_serialized_bytes", p.stateSerializedBytes, "bytes"))

  def tasks(t: TaskStats.Summary): Seq[Metric] = Seq(
    Metric("dataflow.tasks", t.tasks, "count"),
    Metric("dataflow.task_skew", t.skew, "ratio"),
    Metric("dataflow.gc_frac", t.gcFrac, "ratio"),
    Metric("dataflow.shuffle_bytes", t.shuffleBytes, "bytes"))

  def jvm(heapMb: Double, gcMs: Double): Seq[Metric] = Seq(
    Metric("jvm.heap_mb_after_gc", heapMb, "MiB"),
    Metric("jvm.gc_ms", gcMs, "ms"))

  def selfTimes(trace: Trace): Seq[Metric] =
    trace.selfMs.toSeq.map { case (layer, ms) => Metric(s"self_ms.$layer", ms, "ms") }
}
