package repro.streaming

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.OutputMode
import repro.SparkSpec
import repro.core.OnlineSTL
import repro.data.TimeSeriesGen

class OnlineSTLStreamingSpec extends SparkSpec {

  private val period = 8
  private val nSeries = 5
  private val pointsPerSeries = 4 * period + 3 * period

  private def sequentialReference(seriesId: Long): Seq[(Long, Double, Double, Double)] = {
    val stl = new OnlineSTL(Seq(period))
    (0 until pointsPerSeries).flatMap { t =>
      stl.push(TimeSeriesGen.metricPoint(seriesId, t.toLong, period)).map(p =>
        (p.index, p.trend, p.seasonalSum, p.residual))
    }
  }

  test("batch dataflow emits one row per input event") {
    val events = OnlineSTLStreaming.syntheticEvents(spark, nSeries, pointsPerSeries, period)
    val out = OnlineSTLStreaming.decomposeBatch(events, Seq(period))
    assert(out.count() == nSeries.toLong * pointsPerSeries)
  }

  test("batch dataflow matches the sequential OnlineSTL exactly, per key") {
    val events = OnlineSTLStreaming.syntheticEvents(spark, nSeries, pointsPerSeries, period)
    val rows = OnlineSTLStreaming.decomposeBatch(events, Seq(period)).collect()
    val byKey = rows.groupBy(_.seriesId)
    assert(byKey.keySet == (0L until nSeries).toSet)
    for (s <- 0L until nSeries) {
      val got = byKey(s).sortBy(_.ts).map(r => (r.ts, r.trend, r.seasonal, r.residual)).toSeq
      val exp = sequentialReference(s)
      assert(got.size == exp.size)
      for ((g, e) <- got.zip(exp)) {
        assert(g._1 == e._1, s"ts mismatch: $g vs $e")
        assert(math.abs(g._2 - e._2) < 1e-9, s"trend mismatch at ts ${g._1}")
        assert(math.abs(g._3 - e._3) < 1e-9, s"seasonal mismatch at ts ${g._1}")
        assert(math.abs(g._4 - e._4) < 1e-9, s"residual mismatch at ts ${g._1}")
      }
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
      val batchSizes = Seq(10, 4 * period - 5, 7, 2 * period, 10)
      var t = 0
      for (sz <- batchSizes) {
        val events = for (s <- 0L until 2L; dt <- 0 until sz)
          yield MetricEvent(s, t + dt, TimeSeriesGen.metricPoint(s, (t + dt).toLong, period))
        stream.addData(events)
        query.processAllAvailable()
        t += sz
      }
      val total = t
      val got = spark.sql("SELECT * FROM decomp_test").as[DecompRow].collect()
        .filter(_.seriesId == 1L).sortBy(_.ts)
      // reference: sequential push of the same data
      val stl = new OnlineSTL(Seq(period))
      val exp = (0 until total).flatMap(ts =>
        stl.push(TimeSeriesGen.metricPoint(1L, ts.toLong, period)).map(p => (p.index, p.trend, p.residual)))
      assert(got.length == exp.size, s"${got.length} vs ${exp.size}")
      for ((g, e) <- got.zip(exp)) {
        assert(g.ts == e._1)
        assert(math.abs(g.trend - e._2) < 1e-9)
        assert(math.abs(g.residual - e._3) < 1e-9)
      }
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
