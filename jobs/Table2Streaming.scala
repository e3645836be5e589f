package repro.jobs

import repro.core.SlidingTricube
import repro.exp.Table2

/** spark-submit entrypoint for Table 2 (dataflow throughput & memory vs
  * seasonality). Args: optional comma-separated seasonalities
  * (default "10,100,1000,10000").
  */
object Table2Streaming {
  def main(args: Array[String]): Unit = {
    val seasonalities = args.headOption
      .map(_.split(",").map(_.trim.toInt).toSeq)
      .getOrElse(Seq(10, 100, 1000, 10000))
    val spark = JobSession.get("onlinestl-table2")
    try {
      val rows = Table2.run(spark, seasonalities)
      println("== Table 2: OnlineSTL dataflow performance (paper trend filters) ==")
      println(Table2.format(rows))
      val fast = Table2.run(spark, seasonalities, kernel = SlidingTricube)
      println("== Table 2, beyond-paper rows: sliding trend filters ==")
      println(Table2.format(fast))
    } finally spark.stop()
  }
}
