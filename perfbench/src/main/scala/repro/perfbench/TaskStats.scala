package repro.perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** Task metrics of the keyed dataflow layer, per benchmark action, from the
  * public `SparkListener` API. An action is named by the local property
  * [[TaskStats.ActionKey]] set on the thread that runs it; a micro-batch is
  * named by the batch id Spark puts on its jobs.
  */
final class TaskStats extends SparkListener {
  import TaskStats._

  private val jobAction = new ConcurrentHashMap[Int, String]
  private val stageAction = new ConcurrentHashMap[Int, String]
  private val ended = ConcurrentHashMap.newKeySet[Int]()
  private val tasks = new ConcurrentLinkedQueue[(String, Task)]

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    val action = props.flatMap(p => Option(p.getProperty(ActionKey)))
      .orElse(props.flatMap(p => Option(p.getProperty(BatchIdKey))).map("batch-" + _))
    action.foreach { a =>
      jobAction.put(e.jobId, a)
      e.stageIds.foreach(stageAction.put(_, a))
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val action = stageAction.get(e.stageId)
    if (action != null && e.taskMetrics != null) {
      val tm = e.taskMetrics
      tasks.add(action -> Task(e.stageId, tm.executorRunTime, tm.jvmGCTime,
        tm.shuffleWriteMetrics.bytesWritten,
        tm.inputMetrics.recordsRead + tm.shuffleReadMetrics.recordsRead))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = { ended.add(e.jobId); () }
  /** Wait (bounded) until every job of the selected actions has ended, so
    * that the listener bus has delivered their task events.
    */
  def await(select: String => Boolean, timeoutMs: Long = 20000): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def pending = jobAction.asScala.exists { case (j, a) => select(a) && !ended.contains(j) }
    while (pending && System.currentTimeMillis() < deadline) Thread.sleep(10)
  }

  /** Per-action medians over the selected actions. */
  def summary(select: String => Boolean): Summary = {
    val byAction = tasks.asScala.toSeq.filter(t => select(t._1)).groupBy(_._1).values.map(_.map(_._2))
    if (byAction.isEmpty) Summary(0, 0, 0, 0)
    else {
      val all = byAction.flatten
      val runMs = all.map(_.runMs).sum
      val skews = byAction.map { ts =>
        // the action's heaviest stage, over the tasks that read records
        val heavy = ts.groupBy(_.stage).values.maxBy(_.map(_.runMs).sum).filter(_.records > 0)
        if (heavy.isEmpty) 1.0
        else {
          val med = Stats.median(heavy.map(_.runMs.toDouble).toArray)
          heavy.map(_.runMs).max / math.max(med, 1.0)
        }
      }
      Summary(
        tasks = Stats.medianOr0(byAction.map(_.size.toDouble)),
        skew = Stats.medianOr0(skews),
        gcFrac = if (runMs == 0) 0.0 else all.map(_.gcMs).sum.toDouble / runMs,
        shuffleBytes = Stats.medianOr0(byAction.map(_.map(_.shuffleWrite).sum.toDouble)))
    }
  }
}

object TaskStats {
  val ActionKey = "perfbench.action"
  /** Set by Structured Streaming on the jobs of a micro-batch. */
  val BatchIdKey = "streaming.sql.batchId"

  final case class Task(stage: Int, runMs: Long, gcMs: Long, shuffleWrite: Long, records: Long)
  final case class Summary(tasks: Double, skew: Double, gcFrac: Double, shuffleBytes: Double)
}
