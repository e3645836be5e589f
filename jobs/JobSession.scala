package repro.jobs

import org.apache.hadoop.fs.RawLocalFileSystem
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.checkpointing.FileSystemBasedCheckpointFileManager

/** SparkSession factory for the jobs/ entrypoints, the benchmark and the
  * tests: respects the master set by spark-submit (`spark.master`), else
  * uses `SPARK_MASTER`, else local[*] (e.g. under `sbt runMain`).
  *
  * It is also the one place that sizes shuffles: `spark.sql.shuffle.partitions`
  * is the task slots (`defaultParallelism`). Streaming queries run with
  * adaptive query execution off, so their state operator gets one state
  * partition per slot, each committing a state-store version every
  * micro-batch. Batch plans shuffle from the same count under AQE.
  *
  * It also fixes how stream checkpoints reach the disk. Without Hadoop's
  * native library, the local file system forks `chmod` for every file it
  * creates and `readlink` for each side of a `FileContext` rename: 80
  * processes per micro-batch at three state partitions, 8 with the two
  * settings below.
  * - `FileSystemBasedCheckpointFileManager` commits a checkpoint file by
  *   `FileSystem.rename`: on a local disk one `rename(2)`, still atomic. On
  *   HDFS it is Spark's documented `FileSystem` fallback: a non-overwrite
  *   rename still fails if the target exists, and an overwrite of an
  *   existing delta file is logged and skipped.
  * - `RawLocalFileSystem` for `file:` writes no hidden `.<name>.crc` beside
  *   each file. Checkpoint files are then verified only by Spark's own
  *   checkpoint checksum (`<n>.delta.crc` etc.), which stays on.
  * Both go on the builder: Hadoop caches one `FileSystem` per scheme, and a
  * setting made after the context exists does not reach the cached one.
  *
  * And it holds each key's stream state once:
  * `spark.sql.streaming.maxBatchesToRetainInMemory` = 1, where Spark's
  * default keeps two state-store versions in memory, so two copies of every
  * key's record. One version serves every micro-batch that succeeds: it
  * loads the version the last one committed. A batch re-run after a failure
  * reads its base version from the checkpoint files instead, which is as
  * exact, only slower.
  */
object JobSession {
  def get(appName: String): SparkSession = {
    val builder = SparkSession.builder()
      .appName(appName)
      .config("spark.sql.streaming.checkpointFileManagerClass",
        classOf[FileSystemBasedCheckpointFileManager].getName)
      .config("spark.hadoop.fs.file.impl", classOf[RawLocalFileSystem].getName)
      .config("spark.sql.streaming.maxBatchesToRetainInMemory", 1L)
    val withMaster =
      if (sys.props.contains("spark.master")) builder
      else builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    val spark = withMaster.getOrCreate()
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }
}
