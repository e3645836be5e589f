package repro.perfbench

import scala.collection.mutable
import repro.core.OnlineSTL
import repro.streaming.DecompRow

/** One emitted row of a sampled key, kept whole for the reference check. */
final case class SampleRow(ts: Long, trend: Double, seasonal: Double, residual: Double)

/** What one partition emitted for one key: its rows reduced to sorted runs
  * of consecutive `ts` (`ranges` holds start/end pairs), duplicates within
  * the partition, and rows that break `X = T + ΣS + R`.
  */
final case class KeySummary(key: Long, rows: Long, dupRows: Long, badIdentity: Long,
                            ranges: Seq[Long], sample: Seq[SampleRow])

/** The correctness gate. Every output row is checked inside the dataflow, so
  * the output never has to be collected; only the rows of a few sampled keys
  * are, to be compared with a sequential [[OnlineSTL]] run of the same key.
  */
object Check {
  val Tol = 1e-9

  /** Reduces one partition of output rows to per-key summaries. The
    * function captures only `sample`, so it ships to tasks on its own.
    */
  def summarize(sample: Set[Long]): Iterator[DecompRow] => Iterator[KeySummary] = rows => {
    final class Acc {
      val ts = new mutable.ArrayBuilder.ofLong
      var bad = 0L
      val kept = mutable.ArrayBuffer.empty[SampleRow]
    }
    val byKey = mutable.LongMap.empty[Acc]
    rows.foreach { r =>
      val a = byKey.getOrElseUpdate(r.seriesId, new Acc)
      a.ts += r.ts
      val err = r.value - r.trend - r.seasonals.sum - r.residual
      if (!(math.abs(err) <= Tol)) a.bad += 1
      if (sample.contains(r.seriesId)) a.kept += SampleRow(r.ts, r.trend, r.seasonal, r.residual)
    }
    byKey.iterator.map { case (key, a) =>
      val ts = a.ts.result()
      java.util.Arrays.sort(ts)
      val ranges = mutable.ArrayBuffer.empty[Long]
      var dups = 0L
      var i = 0
      while (i < ts.length) {
        val start = ts(i)
        var end = start
        i += 1
        while (i < ts.length && ts(i) <= end + 1) {
          if (ts(i) == end) dups += 1 else end = ts(i)
          i += 1
        }
        ranges += start += end
      }
      KeySummary(key, ts.length, dups, a.bad, ranges.toSeq, a.kept.toSeq)
    }
  }

  private val references = collection.concurrent.TrieMap.empty[(Long, Long, Int, Int), Array[SampleRow]]

  /** Sequential reference decomposition of one key's first `n` points. */
  def reference(seed: Long, key: Long, n: Int, m: Int): Array[SampleRow] =
    references.getOrElseUpdate((seed, key, n, m), computeReference(seed, key, n, m))

  private def computeReference(seed: Long, key: Long, n: Int, m: Int): Array[SampleRow] = {
    val stl = new OnlineSTL(Seq(m))
    val out = new Array[SampleRow](n)
    var t = 0
    while (t < n) {
      stl.push(Workload.value(seed, key, t, m)).foreach { p =>
        out(p.index.toInt) = SampleRow(p.index, p.trend, p.seasonalSum, p.residual)
      }
      t += 1
    }
    out
  }
}

/** Tally of one output (a batch action, or a streaming query
  * across its micro-batches) against what the input implies: every key's
  * `ts` from 0 up to its point count exactly once, the identity on every row,
  * and the sampled keys equal to the sequential reference within [[Check.Tol]].
  */
final class Ledger(m: Int, seed: Long) {
  private val seen = mutable.LongMap.empty[java.util.BitSet]
  private val kept = mutable.LongMap.empty[mutable.ArrayBuffer[SampleRow]]
  private var rows = 0L
  private var dups = 0L
  private var badIdentity = 0L

  def add(parts: Iterable[KeySummary]): Unit = parts.foreach { s =>
    rows += s.rows
    dups += s.dupRows
    badIdentity += s.badIdentity
    val bits = seen.getOrElseUpdate(s.key, new java.util.BitSet)
    s.ranges.grouped(2).foreach { case Seq(a, b) =>
      if (a < 0 || b >= Int.MaxValue) dups += b - a + 1 // impossible ts: count as wrong rows
      else {
        dups += bits.get(a.toInt, b.toInt + 1).cardinality()
        bits.set(a.toInt, b.toInt + 1)
      }
    }
    if (s.sample.nonEmpty) kept.getOrElseUpdate(s.key, mutable.ArrayBuffer.empty) ++= s.sample
  }

  /** (rows expected, rows in error) given each key's point count. */
  def result(expected: collection.Map[Long, Int]): (Long, Long) = {
    val attempted = expected.values.map(_.toLong).sum
    var missing = 0L
    var unexpected = 0L
    for ((key, n) <- expected) {
      val bits = seen.getOrElse(key, new java.util.BitSet)
      missing += n - bits.get(0, n).cardinality()
    }
    for ((key, bits) <- seen) {
      val n = expected.getOrElse(key, 0)
      unexpected += bits.cardinality() - bits.get(0, n).cardinality()
    }
    var mismatch = 0L
    for ((key, got) <- kept) {
      val n = expected.getOrElse(key, 0)
      val ref = Check.reference(seed, key, n, m)
      got.foreach { g =>
        val ok = g.ts >= 0 && g.ts < n && {
          val e = ref(g.ts.toInt)
          e != null && math.abs(g.trend - e.trend) <= Check.Tol &&
          math.abs(g.seasonal - e.seasonal) <= Check.Tol &&
          math.abs(g.residual - e.residual) <= Check.Tol
        }
        if (!ok) mismatch += 1
      }
    }
    val failed = missing + unexpected + dups + badIdentity + mismatch
    (attempted, math.min(failed, math.max(attempted, 1L)))
  }

  def rowsSeen: Long = rows
}
