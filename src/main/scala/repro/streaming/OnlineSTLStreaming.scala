package repro.streaming

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import org.apache.spark.sql.{Dataset, KeyValueGroupedDataset, SparkSession}
import org.apache.spark.sql.catalyst.encoders.ExpressionEncoder
import org.apache.spark.sql.catalyst.expressions.UnsafeRow
import org.apache.spark.sql.catalyst.expressions.objects.{Invoke, UnresolvedMapObjects}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{OnlineSTL, SlidingTricube, TrendKernel}
import repro.data.TimeSeriesGen

/** A single metric observation on the stream: one value of one time series. */
final case class MetricEvent(seriesId: Long, ts: Long, value: Double)

/** One key's events from one map partition, as columns in arrival order:
  * event i is `(seriesId, ts(i), values(i))`.
  */
final case class KeyEvents(seriesId: Long, ts: Array[Long], values: Array[Double])

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

  /** Events a [[pack]] task holds before it emits its rows and starts over,
    * whatever the size of its partition.
    */
  private[repro] val PackEvents = 1 << 16

  /** The map-side combiner ahead of the one keyed shuffle: one partition's
    * events as one [[KeyEvents]] row per key per [[PackEvents]] events held,
    * each key's columns in arrival order.
    *
    * Events whose value is not finite (NaN, ±∞) are dropped here: pushed, one
    * would stay in the exponential smoothing `E_{p,S}`/`E_{p,T}` and turn every
    * later trend and seasonal value into NaN. A dropped point shifts the phase
    * like a missing point does (the phase is the count of points pushed,
    * mod m_p); phase-preserving imputation is not done.
    */
  private[repro] def pack(events: Iterator[MetricEvent]): Iterator[KeyEvents] = {
    val finite = events.filter(e => java.lang.Double.isFinite(e.value))
    Iterator.continually {
      val cols = mutable.LongMap.empty[(mutable.ArrayBuilder.ofLong, mutable.ArrayBuilder.ofDouble)]
      var held = 0
      while (held < PackEvents && finite.hasNext) {
        val e = finite.next()
        val (ts, xs) = cols.getOrElseUpdate(e.seriesId, (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofDouble))
        ts += e.ts; xs += e.value
        held += 1
      }
      cols
    }.takeWhile(_.nonEmpty).flatMap(_.iterator.map { case (key, (ts, xs)) => KeyEvents(key, ts.result(), xs.result()) })
  }

  /** Per-key ingest shared by the batch and streaming paths: the key's
    * [[pack]]ed chunks, concatenated in arrival order, pushed in `ts` order
    * into the keyed OnlineSTL. Input already in `ts` order is pushed as it
    * comes, from the primitive columns; other input gets a stable index sort,
    * so events with equal `ts` keep their arrival order. The init back-fill
    * rows get timestamps counted back from the event that completes the
    * warm-up, which assumes consecutive integer `ts` (0, 1, 2, …).
    *
    * Eager: when it returns, every point of the key has been pushed into
    * `stl` (so `stl.state` is final), and the iterator reads the rows held.
    */
  private[repro] def processKey(key: Long, chunks: Iterator[KeyEvents],
                                stl: OnlineSTL): Iterator[DecompRow] = {
    val (ts, xs) = inTsOrder(chunks.toVector)
    val rows = new mutable.ArrayBuffer[DecompRow](ts.length)
    var i = 0
    while (i < ts.length) {
      val pts = stl.push(xs(i))
      var j = 0
      while (j < pts.length) {
        val p = pts(j)
        // p.index counts points within the series; init back-fill points map
        // onto the earliest timestamps of this key. No seasonals copy: OnlineSTL
        // allocates each point's array fresh (`update`, and per point in
        // `initialize`) and never touches it again.
        rows += DecompRow(key, ts(i) - (stl.pointsSeen - 1 - p.index), p.value, p.trend,
                          ArraySeq.unsafeWrapArray(p.seasonals), p.seasonalSum, p.residual)
        j += 1
      }
      i += 1
    }
    rows.iterator
  }

  /** The chunks' columns concatenated in arrival order, then stably sorted by `ts` unless already in order. */
  private def inTsOrder(chunks: Seq[KeyEvents]): (Array[Long], Array[Double]) = {
    val ts = Array.concat(chunks.map(_.ts): _*)
    val xs = Array.concat(chunks.map(_.values): _*)
    if (inOrder(ts)) (ts, xs)
    else {
      val order = Array.range(0, ts.length).sortBy(ts(_))
      (order.map(ts(_)), order.map(xs(_)))
    }
  }

  private def inOrder(ts: Array[Long]): Boolean = {
    var i = 1
    while (i < ts.length && ts(i - 1) <= ts(i)) i += 1
    i >= ts.length
  }

  /** The one keyed shuffle of both dataflows: [[pack]] in each map partition,
    * then one group per series id.
    */
  private[repro] def byKey(events: Dataset[MetricEvent]): KeyValueGroupedDataset[Long, KeyEvents] = {
    import events.sparkSession.implicits._
    events.mapPartitions(pack)(keyEventsEncoder).groupByKey(_.seriesId)
  }

  /** `e` minus the boxed element-by-element copy Spark's deserializer makes of
    * each array: `toDoubleArray`/`toLongArray`/`toIntArray` copy at once. In the
    * state operator that copy was never optimized away, and its fresh lambda
    * variable missed the codegen cache, so every micro-batch compiled a new
    * class and ran it cold.
    */
  private def bulkArrays[T](e: ExpressionEncoder[T]): ExpressionEncoder[T] =
    e.copy(objDeserializer = e.objDeserializer.transformUp {
      case i @ Invoke(u: UnresolvedMapObjects, _, _, _, _, _, _, _) => i.copy(targetObject = u.child)
    })

  /** [[OnlineSTL.State]]'s product encoder, arrays read back in one copy each. */
  private[repro] implicit val stateEncoder: ExpressionEncoder[OnlineSTL.State] =
    bulkArrays(ExpressionEncoder[OnlineSTL.State]())

  /** [[KeyEvents]]'s product encoder, arrays read back in one copy each. */
  private[repro] val keyEventsEncoder: ExpressionEncoder[KeyEvents] = bulkArrays(ExpressionEncoder[KeyEvents]())

  /** Bytes of `st` as the state store keeps it: the `UnsafeRow` it encodes to. */
  private[repro] def stateRowBytes(st: OnlineSTL.State): Int =
    stateEncoder.createSerializer()(st).asInstanceOf[UnsafeRow].getSizeInBytes

  /** Structured Streaming decomposition: keyed state = each key's [[OnlineSTL.State]]
    * under Spark's product encoder (the analogue of Flink's typed managed keyed state).
    * A restart with other `periods` than the checkpoint's fails on the first key with state.
    * Each micro-batch's events reach a key through [[byKey]]: [[pack]] drops the non-finite
    * ones and packs the rest per key and partition, and [[processKey]] pushes them in `ts`
    * order after the key's earlier batches.
    *
    * State partitions = task slots: the state operator gets one per
    * `spark.sql.shuffle.partitions`, each committing a state-store version
    * every micro-batch, and `repro.jobs.JobSession` sets that to the task
    * slots. The count is frozen in the checkpoint at the query's first
    * start; a restart on it keeps the count whatever the session then says.
    * A caller that brings its own session should make the same settings as
    * `JobSession.get`: shuffle partitions = task slots, one state-store
    * version retained in memory (else every key's record is held twice), and
    * its checkpoint file manager and `file:` file system.
    */
  def decomposeStream(events: Dataset[MetricEvent], periods: Seq[Int]): Dataset[DecompRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    byKey(events)
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (key: Long, chunks: Iterator[KeyEvents], state: GroupState[OnlineSTL.State]) =>
          val stl = state.getOption.map(OnlineSTL.restore(periods, _)).getOrElse(new OnlineSTL(periods))
          val out = processKey(key, chunks, stl)
          state.update(stl.state)
          out
      }
  }

  /** Batch dataflow over a bounded event set — same shuffle ([[byKey]]) and
    * per-key code path, used for throughput measurement. `kernel` picks the
    * trend filters: Table 2's paper rows pass [[repro.core.TrendFilter]].
    */
  def decomposeBatch(events: Dataset[MetricEvent], periods: Seq[Int],
                     kernel: TrendKernel = SlidingTricube): Dataset[DecompRow] = {
    val spark = events.sparkSession
    import spark.implicits._
    byKey(events).flatMapGroups { (key: Long, chunks: Iterator[KeyEvents]) =>
      processKey(key, chunks, new OnlineSTL(periods, kernel))
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
