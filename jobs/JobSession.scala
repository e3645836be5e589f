package repro.jobs

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the jobs/ entrypoints, the benchmark and the
  * tests: respects the master set by spark-submit (`spark.master`), else
  * uses `SPARK_MASTER`, else local[*] (e.g. under `sbt runMain`).
  *
  * It is also the one place that sizes shuffles. Streaming queries run with
  * adaptive query execution off, so their state operator gets
  * `spark.sql.shuffle.partitions` state partitions, each committing a
  * state-store version every micro-batch; that count is set to the task
  * slots (`defaultParallelism`). Batch plans run with AQE, which starts from
  * `spark.sql.adaptive.coalescePartitions.initialPartitionNum` and coalesces;
  * it gets the session's previous shuffle partition count (Spark's default
  * of 200 unless spark-submit set one), so batch plans shuffle as before.
  */
object JobSession {
  private val ShufflePartitions = "spark.sql.shuffle.partitions"
  private val InitialPartitionNum = "spark.sql.adaptive.coalescePartitions.initialPartitionNum"

  def get(appName: String): SparkSession = {
    val builder = SparkSession.builder()
      .appName(appName)
    val withMaster =
      if (sys.props.contains("spark.master")) builder
      else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    val spark = withMaster.getOrCreate()
    // Moved once: a later call on the same session would otherwise move the
    // task-slot count into AQE's initial count.
    if (spark.conf.getOption(InitialPartitionNum).isEmpty)
      spark.conf.set(InitialPartitionNum, spark.conf.get(ShufflePartitions))
    spark.conf.set(ShufflePartitions, spark.sparkContext.defaultParallelism.toLong)
    spark
  }
}
