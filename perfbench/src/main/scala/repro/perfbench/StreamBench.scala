package repro.perfbench

import java.time.Instant
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.locks.LockSupport
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{StreamingQuery, StreamingQueryListener, StreamingQueryProgress}
import repro.jobs.JobSession
import repro.streaming.{DecompRow, MetricEvent, OnlineSTLStreaming}

/** `stream-m1000`: `decomposeStream` on a `MemoryStream`, first fed the 4m
  * init burst per key, then driven by an open-loop generator thread that adds
  * events on a fixed schedule at `wl.rate`, whatever the query does.
  */
object StreamBench {
  val SetupRounds = 3
  val DrainTimeoutMs = 60000L

  /** Progress events of every query, from the public listener API. */
  private final class Progress extends StreamingQueryListener {
    val events = new ConcurrentLinkedQueue[StreamingQueryProgress]
    override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
    override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = { events.add(e.progress); () }
    override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
    def of(q: StreamingQuery): Seq[StreamingQueryProgress] =
      events.asScala.filter(_.runId == q.runId).toSeq.sortBy(_.batchId)
  }

  private def endMs(p: StreamingQueryProgress): Long =
    Instant.parse(p.timestamp).toEpochMilli + p.durationMs.get("triggerExecution")

  /** One query over a fresh source and checkpoint; `batches` holds what each
    * micro-batch emitted, as (batch id, per-key summaries).
    */
  private final class Round(spark: SparkSession, wl: Workload, sample: Set[Long], checkpoint: String,
                            partitions: Int) {
    import spark.implicits._
    // A fixed partition count, like the partitions of a message-queue topic;
    // by default MemoryStream makes one partition per addData call.
    val source: MemoryStream[MetricEvent] = MemoryStream[MetricEvent](spark, partitions)
    val batches = new ConcurrentLinkedQueue[(Long, Array[KeySummary])]
    private val sink: (Dataset[DecompRow], Long) => Unit = {
      val summarize = Check.summarize(sample)
      (df, id) => { batches.add(id -> df.mapPartitions(summarize).collect()); () }
    }
    val query: StreamingQuery = OnlineSTLStreaming.decomposeStream(source.toDS(), Seq(wl.m))
      .writeStream.option("checkpointLocation", checkpoint).foreachBatch(sink).start()
  }

  def run(wl: Workload, seed: Long, seconds: Double, trace: Trace, slots: Int, workDir: String): Outcome = {
    val keys = (0 until wl.keys).map(_.toLong)
    val sample = Workload.sampleKeys(keys, seed, wl.samples)
    val burst = wl.points // the 4m init burst per key
    def event(key: Long, ts: Long) = MetricEvent(key, ts, Workload.value(seed, key, ts, wl.m))

    val (sessionS, spark) = Stats.timed(trace("setup", "session")(JobSession.get(s"perfbench-${wl.name}")))
    spark.sparkContext.setLogLevel("WARN")
    val progress = new Progress
    spark.streams.addListener(progress)
    val tasks = new TaskStats
    if (trace.enabled) spark.sparkContext.addSparkListener(tasks)
    val rounds = ArrayBuffer.empty[Round]
    try {
      // Set-up: a fresh query takes the init burst and one steady point per
      // key in one micro-batch, SetupRounds times; setup_s takes the median
      // round. The last query stays up for the open loop.
      val roundS = (1 to SetupRounds).map { r =>
        if (rounds.nonEmpty) rounds.last.query.stop()
        Stats.timed(trace("setup", s"round $r") {
          val round = new Round(spark, wl, sample, s"$workDir/checkpoint-$r", slots)
          rounds += round
          round.source.addData(for (t <- 0 to burst; k <- keys) yield event(k, t))
          round.query.processAllAvailable()
        })._1
      }
      val setupS = sessionS + Stats.median(roundS.toArray)
      val live = rounds.last
      val setupBatches = live.batches.asScala.map(_._1).max

      val probe = if (trace.enabled) Some(CoreProbe.run(wl.m, seed, trace)) else None

      // Open loop: event i is due at t0 + i/rate and goes to key i mod K at
      // ts0 + i div K. The generator sends whatever is due, then sleeps.
      val total = (wl.rate * seconds).toLong
      val ts0 = burst + 1L
      val k = wl.keys
      val gc0 = Jvm.gcMs
      val sendLog = new ConcurrentLinkedQueue[(Long, Long)] // (epoch ms after send, events sent)
      @volatile var latenessMs = 0.0
      @volatile var genError: Throwable = null
      val (t0Ns, t0Ms) = (System.nanoTime(), System.currentTimeMillis())
      def dueNs(i: Long): Long = t0Ns + (i * 1e9 / wl.rate).toLong
      def emittedOpenLoop = live.batches.asScala.filter(_._1 > setupBatches).map(_._2.map(_.rows).sum).sum
      var timedSpan = 0
      trace("stream", "open loop") {
        timedSpan = trace.current
        val gen = new Thread(() => {
          trace.adopt(timedSpan)
          try {
            var sent = 0L
            while (sent < total) {
              val now = System.nanoTime()
              val due = math.min(total, ((now - t0Ns) * wl.rate / 1e9).toLong + 1)
              if (due > sent) {
                latenessMs = math.max(latenessMs, (now - dueNs(sent)) / 1e6)
                val chunk = (sent until due).map(i => event(keys((i % k).toInt), ts0 + i / k))
                trace("gen", "send")(live.source.addData(chunk))
                sendLog.add(System.currentTimeMillis() -> due)
                sent = due
              }
              LockSupport.parkNanos(math.max(dueNs(sent), now + 5000000L) - System.nanoTime())
            }
          } catch { case e: Throwable => genError = e }
        }, "perfbench-generator")
        gen.setDaemon(true)
        gen.start()
        gen.join()
        if (genError != null) throw genError
        // Drain: wait until every sent event's row has been emitted and the
        // micro-batch that emitted the last one has reported its progress.
        def drained = emittedOpenLoop >= total &&
          progress.of(live.query).exists(_.batchId >= live.batches.asScala.map(_._1).max)
        val drainDeadline = System.currentTimeMillis() + DrainTimeoutMs
        while (!drained && System.currentTimeMillis() < drainDeadline && live.query.isActive)
          Thread.sleep(5)
      }
      val gcMs = Jvm.gcMs - gc0
      val heapMb = Jvm.heapMbAfterGc
      live.query.stop()

      val prog = progress.of(live.query).filter(_.batchId > setupBatches)
      val ends = prog.map(p => p.batchId -> endMs(p)).toMap
      val timedBatches = live.batches.asScala.toSeq.filter(_._1 > setupBatches).sortBy(_._1)

      // Latency of each open-loop event: its batch's end minus its due time.
      // It is sampled over whole micro-batch input windows: the events due
      // before the start of the last micro-batch that began while the
      // generator ran. The events after that start form a partial window
      // that holds only the longest waits of a cycle; its share of the
      // sample would depend on where the end of the run falls in the cycle.
      val genEndMs = t0Ms + (seconds * 1e3).toLong
      val starts = prog.map(p => Instant.parse(p.timestamp).toEpochMilli).filter(_ <= genEndMs)
      val cutMs = if (starts.size >= 2) starts.max.toDouble else Double.PositiveInfinity
      val lat = ArrayBuffer.empty[Double]
      val backlog = ArrayBuffer.empty[(Long, Long)] // (batch end ms, events sent but not emitted)
      val sends = sendLog.asScala.toArray
      var emitted = 0L
      var lastEnd = t0Ms
      for ((id, parts) <- timedBatches; end <- ends.get(id)) {
        for (s <- parts; Seq(a, b) <- s.ranges.grouped(2); ts <- math.max(a, ts0) to b) {
          val due = t0Ms + ((ts - ts0) * k + s.key) * 1e3 / wl.rate
          if (due < cutMs) lat += end - due
        }
        emitted += parts.map(_.rows).sum
        lastEnd = math.max(lastEnd, end)
        val sentBy = sends.filter(_._1 <= end).map(_._2).maxOption.getOrElse(0L)
        backlog += end -> (sentBy - emitted)
      }
      // Backlog while the generator ran, by half of the run.
      val midMs = t0Ms + (seconds * 500).toLong
      val (firstHalf, secondHalf) = backlog.filter(_._1 <= genEndMs).partition(_._1 < midMs)
      def maxBacklog(xs: Iterable[(Long, Long)]) = xs.map(_._2.toDouble).maxOption.getOrElse(0.0)

      // Correctness of every round: each key's ts 0 until its point count.
      var attempted = 0L
      var failed = 0L
      for (round <- rounds) {
        val perKey = keys.zipWithIndex.map { case (key, j) =>
          val open = if (round eq live) total / k + (if (j < total % k) 1 else 0) else 0L
          key -> (burst + 1 + open).toInt
        }.toMap
        val ledger = new Ledger(wl.m, seed)
        round.batches.asScala.foreach(b => ledger.add(b._2))
        val (a, f) = ledger.result(perKey)
        attempted += a; failed += f
      }

      val stateOp = prog.filter(p => p.stateOperators.nonEmpty && p.stateOperators(0).numRowsTotal > 0)
      val stateBytesPerKey = stateOp.lastOption.map { p =>
        p.stateOperators(0).memoryUsedBytes.toDouble / p.stateOperators(0).numRowsTotal
      }.getOrElse(0.0)
      // Steady-state rate: rows of the micro-batches after the first (which
      // starts on the first event alone) that started while the generator
      // ran, over the time between their ends and the ends before them.
      val steady = prog.zip(prog.drop(1)).filter { case (_, b) =>
        Instant.parse(b.timestamp).toEpochMilli <= genEndMs
      }
      val throughput =
        if (steady.isEmpty) emitted / ((lastEnd - t0Ms) / 1e3)
        else steady.map(_._2.numInputRows).sum / (steady.map { case (a, b) => endMs(b) - endMs(a) }.sum / 1e3)
      val latArr = lat.toArray
      val e2e = Seq(
        Metric("setup_s", setupS, "s"),
        Metric("throughput_eps", throughput, "events/s"),
        Metric("latency_ms_p50", if (latArr.isEmpty) 0.0 else Stats.quantile(latArr, 0.5), "ms"),
        Metric("latency_ms_p95", if (latArr.isEmpty) 0.0 else Stats.quantile(latArr, 0.95), "ms"),
        Metric("state_bytes_per_key", stateBytesPerKey, "bytes"))

      val layers = probe.map { p =>
        // Each micro-batch as a span, split into its durationMs parts in the
        // order MicroBatchExecution runs them; addBatch is the keyed dataflow.
        def dur(part: String)(pr: StreamingQueryProgress) =
          Option(pr.durationMs.get(part)).map(_.doubleValue).getOrElse(0.0)
        val nsPerMs = 1000000L
        val offsetNs = t0Ns - t0Ms * nsPerMs
        for (pr <- prog) {
          val start = Instant.parse(pr.timestamp).toEpochMilli
          val id = trace.record("stream", s"batch ${pr.batchId}", offsetNs + start * nsPerMs,
            offsetNs + endMs(pr) * nsPerMs, timedSpan)
          var at = start
          for (part <- Seq("latestOffset", "walCommit", "getBatch", "queryPlanning", "addBatch", "commitOffsets")) {
            val len = dur(part)(pr).toLong
            trace.record(if (part == "addBatch") "dataflow" else "stream", part,
              offsetNs + at * nsPerMs, offsetNs + (at + len) * nsPerMs, id)
            at += len
          }
        }
        def p50(f: StreamingQueryProgress => Double) = Stats.medianOr0(prog.map(f))
        def state(f: org.apache.spark.sql.streaming.StateOperatorProgress => Double)(pr: StreamingQueryProgress) =
          pr.stateOperators.headOption.map(f).getOrElse(0.0)
        val timedAction = (a: String) => a.startsWith("batch-") && a.stripPrefix("batch-").toLong > setupBatches
        tasks.await(timedAction)
        Layers.core(p) ++ Layers.tasks(tasks.summary(timedAction)) ++
          Seq(
            Metric("stream.batch_ms_p50", p50(dur("triggerExecution")), "ms"),
            Metric("stream.add_batch_ms_p50", p50(dur("addBatch")), "ms"),
            Metric("stream.wal_commit_ms_p50", p50(dur("walCommit")), "ms"),
            Metric("stream.commit_offsets_ms_p50", p50(dur("commitOffsets")), "ms"),
            Metric("stream.query_planning_ms_p50", p50(dur("queryPlanning")), "ms"),
            Metric("stream.state_commit_ms_p50", p50(state(_.commitTimeMs.toDouble)), "ms"),
            Metric("stream.state_update_ms_p50", p50(state(_.allUpdatesTimeMs.toDouble)), "ms"),
            Metric("stream.state_rows_updated", p50(state(_.numRowsUpdated.toDouble)), "count"),
            Metric("stream.rows_per_batch_p50", p50(_.numInputRows.toDouble), "count"),
            Metric("stream.batches", prog.size.toDouble, "count"),
            Metric("gen.lateness_ms_max", latenessMs, "ms"),
            Metric("gen.backlog_events_max", maxBacklog(backlog), "count"),
            Metric("gen.backlog_growth_events", maxBacklog(secondHalf) - maxBacklog(firstHalf), "count")) ++
          Layers.jvm(heapMb, gcMs.toDouble)
      }.getOrElse(Nil)

      Outcome(attempted, failed, e2e, layers, Seq(
        "keys" -> wl.keys, "m" -> wl.m, "rate_eps" -> wl.rate, "open_loop_events" -> total,
        "latency_samples" -> latArr.length, "latency_window_ms" -> (math.min(cutMs, genEndMs.toDouble) - t0Ms),
        "batches" -> timedBatches.size,
        "latency_basis" -> "per event: end of the micro-batch that emitted its row minus its due time",
        "lateness_ms_max" -> latenessMs,
        "backlog_max_first_half" -> maxBacklog(firstHalf), "backlog_max_second_half" -> maxBacklog(secondHalf),
        "setup_rounds_s" -> roundS,
        "setup_batches_ms" -> rounds.flatMap(r => progress.of(r.query)).filter(_.batchId <= setupBatches)
          .map(p => Json.Obj(p.durationMs.asScala.toSeq.sortBy(_._1).map { case (k, v) => k -> v.longValue })),
        "timed_batches_ms" -> prog.map(p => p.durationMs.get("triggerExecution").longValue)))
    } finally {
      rounds.foreach(r => if (r.query.isActive) r.query.stop())
      spark.stop()
      // Checkpoints hold thousands of small files per run; nothing reads them later.
      (1 to SetupRounds).foreach(r => deleteTree(new java.io.File(s"$workDir/checkpoint-$r")))
    }
  }

  private def deleteTree(f: java.io.File): Unit = {
    Option(f.listFiles).foreach(_.foreach(deleteTree))
    f.delete()
    ()
  }
}
