package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.jobs.JobSession

/** Base for the Spark tests: one local-mode SparkSession for the whole run,
  * built by the program's own `JobSession`, so tests run the settings it ships.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM when it is set (the tier-1 command in ROADMAP.md sets
  * half of MemTotal, clamped to 2–8 g), else from the same rule in build.sbt.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = JobSession.get("repro")
    // One line in test output with the heap setting, the task slots and the
    // shuffle partition count the tests ran.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism} " +
      s"shufflePartitions=${s.conf.get("spark.sql.shuffle.partitions")}"
    )
    s
  }
}
