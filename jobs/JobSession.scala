package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the jobs/ entrypoints: respects the master set
  * by spark-submit (`spark.master`), else uses `SPARK_MASTER`, else
  * local[*] (e.g. under `sbt runMain`).
  */
object JobSession {
  def get(appName: String): SparkSession = {
    val builder = SparkSession.builder()
      .appName(appName)
    val withMaster =
      if (sys.props.contains("spark.master")) builder
      else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    withMaster.getOrCreate()
  }
}
