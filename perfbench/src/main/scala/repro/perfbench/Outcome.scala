package repro.perfbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** A named measurement with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** What a workload run measured and checked. `attempted` is the number of
  * output rows the input implies, `failed` the rows missing, duplicated,
  * breaking the identity, or differing from the sequential reference.
  */
final case class Outcome(attempted: Long, failed: Long, endToEnd: Seq[Metric],
                         perLayer: Seq[Metric], info: Seq[(String, Any)]) {
  def errorFrac: Double = failed.toDouble / math.max(attempted, 1L)
}

/** JVM-wide memory and GC readings shared by every workload. */
object Jvm {
  def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum

  /** Heap in use right after an explicit full GC, in MiB. */
  def heapMbAfterGc: Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0
  }
}
