package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the jobs/ entrypoints, the benchmark and the
  * tests: respects the master set by spark-submit (`spark.master`), else
  * uses `SPARK_MASTER`, else local[*] (e.g. under `sbt runMain`).
  *
  * It is also the one place that sizes shuffles: `spark.sql.shuffle.partitions`
  * is the task slots (`defaultParallelism`). Streaming queries run with
  * adaptive query execution off, so their state operator gets one state
  * partition per slot, each committing a state-store version every
  * micro-batch. Batch plans shuffle from the same count under AQE.
  */
object JobSession {
  def get(appName: String): SparkSession = {
    val builder = SparkSession.builder()
      .appName(appName)
    val withMaster =
      if (sys.props.contains("spark.master")) builder
      else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    val spark = withMaster.getOrCreate()
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }
}
