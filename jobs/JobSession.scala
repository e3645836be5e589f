package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the jobs/ entrypoints: respects the master set
  * by spark-submit, falls back to local[*] when launched directly (e.g.
  * `sbt runMain`).
  */
object JobSession {
  def get(appName: String): SparkSession = {
    val builder = SparkSession.builder
      .appName(appName)
    val withMaster =
      if (sys.props.contains("spark.master") || sys.env.contains("MASTER")) builder
      else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    withMaster.getOrCreate()
  }
}
