package repro.perfbench

import java.nio.file.{Files, Paths}

/** Benchmark entry point, normally started by `perfbench/run.py`:
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *      [--size full|smoke] [--workdir <dir>]
  * }}}
  *
  * The last line of standard output is one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics with
  * `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
  * report the run's context and its error fraction; the full result and the
  * spans are written under the work directory.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = { System.err.println(s"perfbench: $msg"); sys.exit(2) }
    val size = opts.getOrElse("size", "full")
    val name = opts.getOrElse("workload", fail("--workload is required"))
    val wl = Workload.named(name, size).getOrElse(fail(s"unknown workload '$name' (size $size)"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(fail("--seed must be an integer"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(fail("--seconds must be > 0"))
    val traced = opts.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case other => fail(s"--trace must be 0 or 1, got $other")
    }
    val workDir = Paths.get(opts.getOrElse("workdir", ".bench_build/perfbench")).toAbsolutePath
    Files.createDirectories(workDir)
    val runDir = Files.createTempDirectory(workDir, s"${wl.name}-seed$seed-")

    // One core is left to the benchmark's own threads: result checks and, in
    // the streaming workload, the load generator.
    val nproc = Runtime.getRuntime.availableProcessors
    val slots = math.max(1, nproc - 1)
    System.setProperty("spark.master", s"local[$slots]")

    val trace = new Trace(traced)
    val out = trace("run", wl.name) {
      if (wl.stream) StreamBench.run(wl, seed, seconds, trace, slots, runDir.toString)
      else BatchBench.run(wl, seed, seconds, trace, slots)
    }
    val metrics =
      if (!traced) out.endToEnd
      else Layers.complete(out.perLayer ++ Layers.selfTimes(trace) ++
        out.endToEnd.map(m => m.copy(name = s"e2e.${m.name}")) :+
        Metric("trace.spans", trace.all.size.toDouble, "count"))

    val info = Seq(
      "workload" -> wl.name, "size" -> size, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "nproc" -> nproc, "spark_task_slots" -> slots,
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.runtime.version")}",
      "spark" -> org.apache.spark.SPARK_VERSION,
      "git_sha" -> sys.props.getOrElse("perfbench.gitSha", "unknown"),
      "source_digest" -> sys.props.getOrElse("perfbench.sourceDigest", "unknown"),
      "error_frac" -> out.errorFrac) ++ out.info
    def byName(ms: Seq[Metric]) = Json.Obj(ms.map(m => m.name -> Json.Obj(Seq("value" -> m.value, "unit" -> m.unit))))
    val result = Json.obj(Seq(
      "correct" -> (out.failed == 0 && out.attempted > 0),
      "attempted" -> out.attempted,
      "failed" -> out.failed,
      "metrics" -> byName(metrics)))
    Files.writeString(runDir.resolve("result.json"),
      Json.obj(Seq("info" -> Json.Obj(info), "metrics" -> byName(out.endToEnd ++ out.perLayer))) + "\n")
    if (traced) Files.writeString(runDir.resolve("spans.json"), trace.toJson + "\n")
    println("info " + Json.obj(info))
    println(f"summary workload=${wl.name} seed=$seed error_frac=${out.errorFrac}%.3g " +
      out.endToEnd.map(m => s"${m.name}=${m.value}").mkString(" "))
    println(result)
  }
}
