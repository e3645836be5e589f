package repro.streaming

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.expressions.UnsafeRow
import org.apache.spark.sql.catalyst.expressions.objects.{Invoke, UnresolvedMapObjects}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.OnlineSTL
import repro.data.TimeSeriesGen

/** A single metric observation on the stream: one value of one time series. */
final case class MetricEvent(seriesId: Long, ts: Long, value: Double)

/** One decomposed point, flattened for Spark SQL friendliness.
  * `seasonals` is per-period; `seasonal` is their sum.
  */
final case class DecompRow(
    seriesId: Long, ts: Long, value: Double,
    trend: Double, seasonals: Seq[Double], seasonal: Double, residual: Double)

/** OnlineSTL as a Spark dataflow — the reproduction of the paper's Flink
  * deployment (§6). The paper runs OnlineSTL as a *stateful keyed map*; the
  * Spark Structured Streaming analogue is `flatMapGroupsWithState` keyed by
  * series id with each key's [[OnlineSTL.State]] as managed state. A batch
  * `flatMapGroups` variant runs the identical per-key code path without
  * micro-batch state-store overhead and is what the Table-2 throughput bench
  * uses (the paper likewise disables checkpointing when measuring
  * throughput).
  */
object OnlineSTLStreaming {

  /** Per-key processing shared by the batch and streaming paths: feed events
    * in timestamp order into the keyed OnlineSTL state. The init back-fill
    * rows get timestamps counted back from the event that completes the
    * warm-up, which assumes consecutive integer `ts` (0, 1, 2, …).
    *
    * Events whose value is not finite (NaN, ±∞) are skipped and emit no
    * row: pushed, one would stay in the exponential smoothing `E_{p,S}`/
    * `E_{p,T}` and turn every later trend and seasonal value into NaN. A
    * skipped point shifts the phase like a missing point does (the phase
    * is the count of points pushed, mod m_p); phase-preserving imputation
    * is not done here.
    *
    * Events with equal `ts` keep their arrival order (the sort is stable),
    * and input already in `ts` order is not sorted at all.
    */
  private[repro] def processKey(key: Long, events: Iterator[MetricEvent],
                                stl: OnlineSTL): Iterator[DecompRow] = {
    val sorted = events.filter(e => java.lang.Double.isFinite(e.value)).toArray
    if (!inTsOrder(sorted)) java.util.Arrays.sort(sorted, byTs)
    sorted.iterator.flatMap { e =>
      stl.push(e.value).map { p =>
        // p.index counts points within the series; init back-fill points map
        // onto the earliest timestamps of this key.
        val ts = e.ts - (stl.pointsSeen - 1 - p.index)
        DecompRow(key, ts, p.value, p.trend, p.seasonals.toSeq, p.seasonalSum, p.residual)
      }
    }
  }

  // A comparator on the primitive `ts`: `sortBy(_.ts)` boxes both per compare.
  private val byTs: java.util.Comparator[MetricEvent] = (a, b) => java.lang.Long.compare(a.ts, b.ts)

  private def inTsOrder(es: Array[MetricEvent]): Boolean = {
    var i = 1
    while (i < es.length && es(i - 1).ts <= es(i).ts) i += 1
    i >= es.length
  }

  /** [[OnlineSTL.State]]'s product encoder, minus the boxed element-by-element copy
    * Spark's deserializer makes of each array. The state operator never optimizes that
    * copy away, and its fresh lambda variable misses the codegen cache, so every
    * micro-batch compiled a new class and ran it cold. `toDoubleArray` copies at once.
    */
  private[repro] implicit val stateEncoder: ExpressionEncoder[OnlineSTL.State] = {
    val e = ExpressionEncoder[OnlineSTL.State]()
    e.copy(objDeserializer = e.objDeserializer.transformUp {
      case i @ Invoke(u: UnresolvedMapObjects, _, _, _, _, _, _, _) => i.copy(targetObject = u.child)
    })
  }

  /** Bytes of `st` as the state store keeps it: the `UnsafeRow` it encodes to. */
  private[repro] def stateRowBytes(st: OnlineSTL.State): Int =
    stateEncoder.createSerializer()(st).asInstanceOf[UnsafeRow].getSizeInBytes

  /** Structured Streaming decomposition: keyed state = each key's [[OnlineSTL.State]]
    * under Spark's product encoder (the analogue of Flink's typed managed keyed state).
    * A restart with other `periods` than the checkpoint's fails on the first key with state.
    *
    * State partitions = task slots: the state operator gets one per
    * `spark.sql.shuffle.partitions`, each committing a state-store version
    * every micro-batch, and `repro.jobs.JobSession` sets that to the task
    * slots. The count is frozen in the checkpoint at the query's first
    * start; a restart on it keeps the count whatever the session then says.
    * A caller that brings its own session should make the same two settings
    * as `JobSession.get`: shuffle partitions = task slots, and the previous
    * count as `spark.sql.adaptive.coalescePartitions.initialPartitionNum`.
    */
  def decomposeStream(events: Dataset[MetricEvent], periods: Seq[Int]): Dataset[DecompRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    events
      .groupByKey(_.seriesId)
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (key: Long, it: Iterator[MetricEvent], state: GroupState[OnlineSTL.State]) =>
          val stl = state.getOption.map(OnlineSTL.restore(periods, _)).getOrElse(new OnlineSTL(periods))
          val out = processKey(key, it, stl).toVector
          state.update(stl.state)
          out.iterator
      }
  }

  /** Batch dataflow over a bounded event set — same per-key code path, used
    * for throughput measurement.
    */
  def decomposeBatch(events: Dataset[MetricEvent], periods: Seq[Int]): Dataset[DecompRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    events
      .groupByKey(_.seriesId)
      .flatMapGroups { (key: Long, it: Iterator[MetricEvent]) =>
        processKey(key, it, new OnlineSTL(periods))
      }
  }

  /** Deterministic synthetic metric stream: `nSeries` keys, `pointsPerSeries`
    * points each, seasonal with the given period (generated inside the
    * dataflow from (seriesId, ts) so generation cost is negligible).
    */
  def syntheticEvents(spark: SparkSession, nSeries: Int, pointsPerSeries: Int,
                      period: Int): Dataset[MetricEvent] = {
    import spark.implicits._
    val pps = pointsPerSeries.toLong
    spark.range(nSeries * pps).map { id =>
      val s = id / pps; val t = id % pps
      MetricEvent(s, t, TimeSeriesGen.metricPoint(s, t, period))
    }
  }
}
