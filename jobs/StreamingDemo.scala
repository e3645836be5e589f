package repro.jobs

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.OutputMode
import repro.streaming.{MetricEvent, OnlineSTLStreaming}
import repro.data.TimeSeriesGen

/** Demonstrates the production shape: OnlineSTL as keyed state inside a
  * Structured Streaming query (the Flink-deployment analogue, paper §6).
  * Feeds a few micro-batches of synthetic metrics through MemoryStream and
  * prints decomposed rows. Args: [nSeries] [period] [batches].
  */
object StreamingDemo {
  def main(args: Array[String]): Unit = {
    val nSeries = args.headOption.map(_.toInt).getOrElse(4)
    val period = args.lift(1).map(_.toInt).getOrElse(12)
    val batches = args.lift(2).map(_.toInt).getOrElse(6)
    val spark = JobSession.get("onlinestl-streaming-demo")
    import spark.implicits._
    implicit val sqlCtx = spark.sqlContext

    val stream = MemoryStream[MetricEvent]
    val query = OnlineSTLStreaming.decomposeStream(stream.toDS(), Seq(period))
      .writeStream.format("memory").queryName("decomp").outputMode(OutputMode.Append).start()

    val perBatch = period // one period of new points per micro-batch
    var t = 0L
    for (_ <- 1 to batches) {
      val events = for (s <- 0L until nSeries; dt <- 0 until perBatch)
        yield MetricEvent(s, t + dt, TimeSeriesGen.metricPoint(s, t + dt, period))
      stream.addData(events)
      query.processAllAvailable()
      t += perBatch
    }
    spark.sql("SELECT * FROM decomp ORDER BY seriesId, ts").show(20, truncate = false)
    println(s"total decomposed rows: ${spark.sql("SELECT count(*) c FROM decomp").first().getLong(0)}")
    query.stop(); spark.stop()
  }
}
