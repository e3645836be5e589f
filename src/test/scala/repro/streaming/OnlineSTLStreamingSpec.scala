package repro.streaming

import java.nio.file.Files
import java.util.Comparator
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.Dataset
import org.apache.spark.sql.catalyst.expressions.objects.UnresolvedMapObjects
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{OutputMode, StreamingQuery, StreamingQueryException}
import org.scalacheck.{Gen, Prop, Test => Check}
import repro.SparkSpec
import repro.core.{OnlineSTL, SlidingTricube, TrendFilter}
import repro.data.TimeSeriesGen

class OnlineSTLStreamingSpec extends SparkSpec {

  private val period = 8
  private val nSeries = 5
  private val pointsPerSeries = 4 * period + 3 * period

  private def sequentialReference(seriesId: Long, n: Int = pointsPerSeries,
                                  m: Int = period): Seq[(Long, Double, Double, Double)] = {
    val stl = new OnlineSTL(Seq(m))
    (0 until n).flatMap { t =>
      stl.push(TimeSeriesGen.metricPoint(seriesId, t.toLong, m)).map(p =>
        (p.index, p.trend, p.seasonalSum, p.residual))
    }
  }

  /** Key `s`'s rows, in ts order, equal the sequential reference over `n` points. */
  private def assertMatchesReference(s: Long, rows: Seq[DecompRow], n: Int, m: Int = period): Unit = {
    val got = rows.filter(_.seriesId == s).sortBy(_.ts)
    val exp = sequentialReference(s, n, m)
    assert(got.size == exp.size, s"key $s: ${got.size} rows vs ${exp.size}")
    for ((g, e) <- got.zip(exp)) {
      assert(g.ts == e._1, s"ts mismatch: $g vs $e")
      assert(math.abs(g.trend - e._2) < 1e-9, s"trend mismatch at key $s ts ${g.ts}")
      assert(math.abs(g.seasonal - e._3) < 1e-9, s"seasonal mismatch at key $s ts ${g.ts}")
      assert(math.abs(g.residual - e._4) < 1e-9, s"residual mismatch at key $s ts ${g.ts}")
    }
  }

  /** Feeds keys 0 and 1 one micro-batch per size, from ts `t0` on, each
    * processed before the next; returns the ts after the last batch.
    */
  private def feed(stream: MemoryStream[MetricEvent], query: StreamingQuery, t0: Int, sizes: Seq[Int],
                   m: Int = period): Int =
    sizes.foldLeft(t0) { (t, sz) =>
      stream.addData(for (s <- 0L until 2L; dt <- 0 until sz)
        yield MetricEvent(s, t + dt, TimeSeriesGen.metricPoint(s, (t + dt).toLong, m)))
      query.processAllAvailable()
      t + sz
    }

  test("batch dataflow emits one row per input event") {
    val events = OnlineSTLStreaming.syntheticEvents(spark, nSeries, pointsPerSeries, period)
    val out = OnlineSTLStreaming.decomposeBatch(events, Seq(period))
    assert(out.count() == nSeries.toLong * pointsPerSeries)
  }

  test("batch dataflow matches the sequential OnlineSTL exactly, per key") {
    val events = OnlineSTLStreaming.syntheticEvents(spark, nSeries, pointsPerSeries, period)
    // Both trend filters: Table 2's paper rows run this dataflow with TrendFilter.
    for (kernel <- Seq(SlidingTricube, TrendFilter)) {
      val rows = OnlineSTLStreaming.decomposeBatch(events, Seq(period), kernel).collect().toSeq
      val byKey = rows.groupBy(_.seriesId)
      assert(byKey.keySet == (0L until nSeries).toSet)
      val exp = (0L until nSeries).flatMap { s =>
        val stl = new OnlineSTL(Seq(period), kernel)
        (0 until pointsPerSeries).flatMap(t => stl.push(TimeSeriesGen.metricPoint(s, t.toLong, period))).map(p =>
          DecompRow(s, p.index, p.value, p.trend, p.seasonals.toSeq, p.seasonalSum, p.residual))
      }
      assert(rows.sortBy(r => (r.seriesId, r.ts)) == exp, s"kernel $kernel")
    }
  }

  test("batch dataflow is partition-order independent (repartitioned input)") {
    val events = OnlineSTLStreaming.syntheticEvents(spark, nSeries, pointsPerSeries, period)
      .repartition(7)
    val rows = OnlineSTLStreaming.decomposeBatch(events, Seq(period)).collect()
    val s0 = rows.filter(_.seriesId == 0L).sortBy(_.ts)
    val exp = sequentialReference(0L)
    assert(s0.length == exp.size)
    for ((g, e) <- s0.zip(exp)) assert(math.abs(g.trend - e._2) < 1e-9)
  }

  test("processKey orders events by ts stably: equal ts keep their arrival order") {
    // Every third ts arrives twice with different values, the input shuffled.
    val events = (0 until pointsPerSeries).flatMap { t =>
      val e = MetricEvent(0L, t.toLong, TimeSeriesGen.metricPoint(0L, t.toLong, period))
      if (t % 3 == 0) Seq(e, e.copy(value = e.value + 1.0)) else Seq(e)
    }
    val shuffled = new scala.util.Random(4).shuffle(events)
    def run(es: Seq[MetricEvent]) =
      OnlineSTLStreaming.processKey(0L, OnlineSTLStreaming.pack(es.iterator), new OnlineSTL(Seq(period))).toVector
    val expected = run(shuffled.sortBy(_.ts))
    assert(run(shuffled) == expected)
    // input already in ts order is taken as it comes
    assert(run(shuffled.sortBy(_.ts)) == expected)
    assert(expected.map(_.value) == shuffled.sortBy(_.ts).map(_.value))
  }

  test("processKey pushes every point before it returns") {
    // Shuffled arrival across the init boundary, and two values pack drops.
    val events = new scala.util.Random(5).shuffle(
      (0 until pointsPerSeries).map(t => MetricEvent(0L, t.toLong, TimeSeriesGen.metricPoint(0L, t.toLong, period))) ++
      Seq(MetricEvent(0L, pointsPerSeries.toLong, Double.NaN), MetricEvent(0L, pointsPerSeries + 1L, Double.NegativeInfinity)))
    val finite = events.count(e => java.lang.Double.isFinite(e.value))
    val stl = new OnlineSTL(Seq(period))
    val rows = OnlineSTLStreaming.processKey(0L, OnlineSTLStreaming.pack(events.iterator), stl)
    // Nothing of the returned iterator touched yet.
    assert(stl.pointsSeen == finite)
    val pushed = stl.state
    assert(rows.size == finite)
    val drained = stl.state
    assert(pushed.version == drained.version && pushed.periods.sameElements(drained.periods))
    assert(pushed.seen == drained.seen && pushed.values.sameElements(drained.values))
  }

  test("property: processKey over any packing of a key's events equals it over the events in ts order") {
    val case_ = for {
      n <- Gen.frequency(9 -> Gen.choose(0, 12 * period), 1 -> Gen.const(2 * OnlineSTLStreaming.PackEvents + 37))
      parts <- Gen.choose(1, 5)
      shuffled <- Gen.oneOf(true, false)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (n, parts, shuffled, seed)
    val prop = Prop.forAll(case_) { case (n, parts, shuffled, seed) =>
      val rng = new scala.util.Random(seed)
      // Keys 0-2 interleaved; an eighth of the events repeat their key's last
      // ts with another value, and one in sixteen values is NaN or ±inf.
      val next = Array.fill(3)(0L)
      val events = (0 until n).map { _ =>
        val k = rng.nextInt(3)
        val ts = if (next(k) > 0 && rng.nextInt(8) == 0) next(k) - 1 else { next(k) += 1; next(k) - 1 }
        val x = rng.nextInt(48) match {
          case 0 => Double.NaN
          case 1 => Double.PositiveInfinity
          case 2 => Double.NegativeInfinity
          case _ => TimeSeriesGen.metricPoint(k.toLong, ts, period) + rng.nextGaussian()
        }
        MetricEvent(k.toLong, ts, x)
      }
      val arrived = if (shuffled) rng.shuffle(events) else events
      val cuts = (Seq.fill(parts - 1)(rng.nextInt(n + 1)) :+ 0 :+ n).sorted
      val chunks = cuts.sliding(2).flatMap(c => OnlineSTLStreaming.pack(arrived.slice(c(0), c(1)).iterator)).toVector
      val finite = arrived.filter(e => java.lang.Double.isFinite(e.value))
      assert(chunks.map(_.ts.length).sum == finite.size)
      assert(chunks.forall(c => c.ts.length == c.values.length && c.ts.length <= OnlineSTLStreaming.PackEvents))
      (0L until 3L).forall { k =>
        def run(cs: Seq[KeyEvents]) = OnlineSTLStreaming.processKey(k, cs.iterator, new OnlineSTL(Seq(period))).toVector
        val inOrder = finite.filter(_.seriesId == k).sortBy(_.ts)
        run(chunks.filter(_.seriesId == k)) == run(Seq(KeyEvents(k, inOrder.map(_.ts).toArray, inOrder.map(_.value).toArray)))
      }
    }
    val result = Check.check(Check.Parameters.default.withInitialSeed(9L), prop)
    assert(result.passed, result.status.toString)
  }

  test("property: on finite, in-order input, decomposeBatch equals the sequential OnlineSTL for any repartition") {
    import spark.implicits._
    val case_ = for {
      keys <- Gen.choose(1, 4)
      n <- Gen.choose(0, 8 * period)
      parts <- Gen.choose(1, 9)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (keys, n, parts, seed)
    val prop = Prop.forAll(case_) { case (keys, n, parts, seed) =>
      val rng = new scala.util.Random(seed)
      val xs = Seq.tabulate(keys, n)((k, t) => TimeSeriesGen.metricPoint(k.toLong, t.toLong, period) + rng.nextGaussian())
      val events = for (k <- 0 until keys; t <- 0 until n) yield MetricEvent(k.toLong, t.toLong, xs(k)(t))
      val got = OnlineSTLStreaming.decomposeBatch(events.toDS().repartition(parts), Seq(period))
        .collect().toSeq.sortBy(r => (r.seriesId, r.ts))
      val exp = (0 until keys).flatMap { k =>
        val stl = new OnlineSTL(Seq(period))
        xs(k).flatMap(stl.push).map(p =>
          DecompRow(k.toLong, p.index, p.value, p.trend, p.seasonals.toSeq, p.seasonalSum, p.residual))
      }
      got == exp
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(12).withInitialSeed(10L), prop)
    assert(result.passed, result.status.toString)
  }

  test("decomposition identity holds on every emitted row") {
    val events = OnlineSTLStreaming.syntheticEvents(spark, 3, pointsPerSeries, period)
    val rows = OnlineSTLStreaming.decomposeBatch(events, Seq(period)).collect()
    for (r <- rows) {
      assert(math.abs(r.trend + r.seasonal + r.residual - r.value) < 1e-9)
      assert(math.abs(r.seasonals.sum - r.seasonal) < 1e-12)
    }
  }

  test("structured streaming with keyed state matches sequential across micro-batches") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val stream = MemoryStream[MetricEvent]
    val query = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(period))
      .writeStream.format("memory").queryName("decomp_test").outputMode(OutputMode.Append)
      .start()
    try {
      // feed several micro-batches of varying size to cross the init boundary
      val total = feed(stream, query, 0, Seq(10, 4 * period - 5, 7, 2 * period, 10))
      val got = spark.sql("SELECT * FROM decomp_test").as[DecompRow].collect().toSeq
      assertMatchesReference(1L, got, total)
      // JobSession's deployed count: one state partition per task slot.
      assert(query.lastProgress.stateOperators(0).numShufflePartitions ==
        spark.sparkContext.defaultParallelism)
    } finally query.stop()
  }

  test("structured streaming holds one state record per key and reloads no version from files") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    // At m=1000 a record (73 KB) outweighs what each state partition's map
    // costs empty; at the suite's period 8 a record is 928 B and does not.
    val m = 1000
    val stream = MemoryStream[MetricEvent]
    val query = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(m))
      .writeStream.format("memory").queryName("decomp_held").outputMode(OutputMode.Append)
      .start()
    try {
      val total = feed(stream, query, 0, Seq(10, 4 * m - 5, 7, 2 * m, 10), m)
      val got = spark.sql("SELECT * FROM decomp_held").as[DecompRow].collect().toSeq
      for (s <- 0L until 2L) assertMatchesReference(s, got, total, m)
      val ops = query.recentProgress.flatMap(_.stateOperators.headOption)
      // Held state: one retained version, so about one record per key.
      val records = (0L until 2L).map { s =>
        val stl = new OnlineSTL(Seq(m))
        (0 until total).foreach(t => stl.push(TimeSeriesGen.metricPoint(s, t.toLong, m)))
        OnlineSTLStreaming.stateRowBytes(stl.state)
      }
      val last = ops.last
      assert(last.numRowsTotal == 2L)
      val perKey = last.memoryUsedBytes.toDouble / last.numRowsTotal
      assert(perKey <= 1.2 * records.sum / records.size, s"$perKey B held per key, records of ${records.mkString(", ")} B")
      // Traffic: every micro-batch after the first loads its base version
      // from the one retained in memory, none from the checkpoint files.
      val misses = ops.map(_.customMetrics.get("loadedMapCacheMissCount").longValue)
      assert(ops.length >= 5 && misses.forall(_ == 0L), misses.toSeq)
    } finally query.stop()
  }

  test("structured streaming matches sequential across a checkpoint/restart") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val checkpointDir = Files.createTempDirectory("onlinestl-ckpt")
    val stream = MemoryStream[MetricEvent]
    val rows = new java.util.concurrent.ConcurrentLinkedQueue[DecompRow]
    val sink: (Dataset[DecompRow], Long) => Unit = (df, _) => { df.collect().foreach(rows.add); () }
    def start() = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(period))
      .writeStream.option("checkpointLocation", checkpointDir.toString).foreachBatch(sink).start()
    val shuffleKey = "spark.sql.shuffle.partitions"
    val deployed = spark.conf.get(shuffleKey)
    val (frozen, total, files) =
      try {
        val first = start()
        val (frozen, mid) =
          try {
            val mid = feed(stream, first, 0, Seq(10, 4 * period - 5, 7)) // crosses the 4m init boundary
            (first.lastProgress.stateOperators(0).numShufflePartitions, mid)
          } finally first.stop()
        try {
          spark.conf.set(shuffleKey, deployed.toLong + 3)
          val second = start()
          try {
            val total = feed(stream, second, mid, Seq(2 * period, 10, 5))
            // The state partition count is frozen in the checkpoint.
            assert(second.lastProgress.stateOperators(0).numShufflePartitions == frozen)
            (frozen, total, Files.walk(checkpointDir).iterator.asScala.map(checkpointDir.relativize(_)).toList)
          } finally second.stop()
        } finally spark.conf.set(shuffleKey, deployed)
      } finally Files.walk(checkpointDir).sorted(Comparator.reverseOrder()).forEach(p => Files.delete(p))
    assert(frozen == spark.sparkContext.defaultParallelism)
    // JobSession's checkpoint I/O: Spark's checkpoint checksums are written,
    // Hadoop's hidden `.<name>.crc` side files are not.
    assert(files.exists(_.toString.matches("state/0/\\d+/\\d+\\.delta\\.crc")), files)
    val hidden = files.filter { f => val n = f.getFileName.toString; n.startsWith(".") && n.endsWith(".crc") }
    assert(hidden.isEmpty, s"${hidden.size} Hadoop .crc files, e.g. ${hidden.take(3)}")
    val got = rows.asScala.toSeq
    for (s <- 0L until 2L) {
      val ts = got.filter(_.seriesId == s).map(_.ts)
      assert(ts.distinct.size == ts.size, s"a ts of key $s was emitted twice")
      assertMatchesReference(s, got, total)
    }
  }

  test("a restart on a damaged state checkpoint fails and emits no row from it") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val checkpointDir = Files.createTempDirectory("onlinestl-ckpt")
    val stream = MemoryStream[MetricEvent]
    val rows = new java.util.concurrent.ConcurrentLinkedQueue[DecompRow]
    val sink: (Dataset[DecompRow], Long) => Unit = (df, _) => { df.collect().foreach(rows.add); () }
    def start() = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(period))
      .writeStream.option("checkpointLocation", checkpointDir.toString).foreachBatch(sink).start()
    try {
      val first = start()
      val mid = try feed(stream, first, 0, Seq(4 * period + 3, 5)) finally first.stop()
      // The newest version's largest delta file holds a key's state: flip one of its bytes.
      val delta = "state/0/\\d+/(\\d+)\\.delta".r
      val deltas = Files.walk(checkpointDir).iterator.asScala.toList.flatMap { f =>
        checkpointDir.relativize(f).toString match {
          case delta(v) => Some((v.toLong, Files.size(f), f))
          case _ => None
        }
      }
      val damaged = deltas.maxBy { case (v, size, _) => (v, size) }._3
      val bytes = Files.readAllBytes(damaged)
      bytes(bytes.length / 2) = (bytes(bytes.length / 2) ^ 1).toByte
      Files.write(damaged, bytes)
      rows.clear()
      val second = start()
      try {
        val e = intercept[StreamingQueryException](feed(stream, second, mid, Seq(5)))
        val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
        assert(messages.exists(m => m != null && m.contains("CHECKPOINT_FILE_CHECKSUM_VERIFICATION_FAILED")), e)
      } finally second.stop()
      assert(rows.isEmpty, s"${rows.size} rows emitted after the restart")
    } finally Files.walk(checkpointDir).sorted(Comparator.reverseOrder()).forEach(p => Files.delete(p))
  }

  test("a restart on a checkpoint with other periods fails instead of keeping the old ones") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val checkpointDir = Files.createTempDirectory("onlinestl-ckpt")
    val stream = MemoryStream[MetricEvent]
    def start(periods: Seq[Int]) = OnlineSTLStreaming.decomposeStream(stream.toDS(), periods)
      .writeStream.option("checkpointLocation", checkpointDir.toString).format("noop").start()
    try {
      val first = start(Seq(period))
      val mid = try feed(stream, first, 0, Seq(4 * period + 3)) finally first.stop()
      val second = start(Seq(period / 2, period))
      try {
        val e = intercept[StreamingQueryException](feed(stream, second, mid, Seq(5)))
        val messages = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null).map(_.getMessage)
        assert(messages.exists(m => m != null && m.contains(s"state has periods $period")), e)
      } finally second.stop()
    } finally Files.walk(checkpointDir).sorted(Comparator.reverseOrder()).forEach(p => Files.delete(p))
  }

  test("the state encoder reads the record's arrays back in one copy each") {
    // Spark's default deserializer copies an array element by element, and in
    // the state operator that copy compiled a new class every micro-batch.
    val enc = OnlineSTLStreaming.stateEncoder
    assert(!enc.objDeserializer.exists(_.isInstanceOf[UnresolvedMapObjects]), enc.objDeserializer)
    val st = OnlineSTL.State(OnlineSTL.StateVersion, Array(3, 8), 7L, Array(1.5, -2.0, Double.MinPositiveValue))
    val back = enc.resolveAndBind().createDeserializer()(enc.createSerializer()(st))
    assert(back.version == st.version && back.periods.toSeq == st.periods.toSeq && back.seen == st.seen)
    assert(back.values.toSeq == st.values.toSeq)
  }

  test("the KeyEvents encoder reads each array back in one copy") {
    val enc = OnlineSTLStreaming.keyEventsEncoder
    assert(!enc.objDeserializer.exists(_.isInstanceOf[UnresolvedMapObjects]), enc.objDeserializer)
    val ke = KeyEvents(3L, Array(5L, -1L, Long.MaxValue), Array(1.5, -2.0, Double.MinPositiveValue))
    val back = enc.resolveAndBind().createDeserializer()(enc.createSerializer()(ke))
    assert(back.seriesId == ke.seriesId && back.ts.toSeq == ke.ts.toSeq && back.values.toSeq == ke.values.toSeq)
  }

  test("non-finite values are skipped and never poison a key (batch and streaming)") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val n = 4 * period + 3 * period
    val bad = Map(4 * period + 5 -> Double.NaN, 4 * period + 9 -> Double.PositiveInfinity)
    val events = (0 until n).map(t =>
      MetricEvent(0L, t, bad.getOrElse(t, TimeSeriesGen.metricPoint(0L, t.toLong, period))))
    // Reference: the sequential OnlineSTL fed only the finite values.
    val stl = new OnlineSTL(Seq(period))
    val exp = events.filterNot(e => bad.contains(e.ts.toInt)).flatMap(e => stl.push(e.value))
    def check(path: String, rows: Seq[DecompRow]): Unit = {
      assert(rows.size == n - bad.size, s"$path: ${rows.size} rows")
      for ((r, e) <- rows.sortBy(_.ts).zip(exp)) {
        val all = Seq(r.value, r.trend, r.seasonal, r.residual) ++ r.seasonals
        assert(all.forall(java.lang.Double.isFinite), s"$path: non-finite row $r")
        assert(math.abs(r.trend + r.seasonal + r.residual - r.value) < 1e-9, s"$path: $r")
        assert(math.abs(r.trend - e.trend) < 1e-9 && math.abs(r.residual - e.residual) < 1e-9, s"$path: $r")
      }
    }
    check("batch", OnlineSTLStreaming.decomposeBatch(events.toDS(), Seq(period)).collect().toSeq)

    val stream = MemoryStream[MetricEvent]
    val query = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(period))
      .writeStream.format("memory").queryName("decomp_nonfinite").outputMode(OutputMode.Append)
      .start()
    try {
      // The NaN and the +inf arrive in different micro-batches after init.
      for (part <- Seq(events.take(4 * period + 7), events.drop(4 * period + 7))) {
        stream.addData(part)
        query.processAllAvailable()
      }
      check("streaming", spark.sql("SELECT * FROM decomp_nonfinite").as[DecompRow].collect().toSeq)
    } finally query.stop()
  }

  test("streaming emits nothing for a key still inside its init window") {
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext
    val stream = MemoryStream[MetricEvent]
    val query = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(period))
      .writeStream.format("memory").queryName("decomp_warm").outputMode(OutputMode.Append)
      .start()
    try {
      stream.addData((0 until 2 * period).map(t =>
        MetricEvent(0L, t, TimeSeriesGen.metricPoint(0L, t.toLong, period))))
      query.processAllAvailable()
      assert(spark.sql("SELECT count(*) c FROM decomp_warm").first().getLong(0) == 0L)
      // crossing the 4m boundary releases the whole backlog
      stream.addData((2 * period until 4 * period).map(t =>
        MetricEvent(0L, t, TimeSeriesGen.metricPoint(0L, t.toLong, period))))
      query.processAllAvailable()
      assert(spark.sql("SELECT count(*) c FROM decomp_warm").first().getLong(0) == 4L * period)
    } finally query.stop()
  }
}
