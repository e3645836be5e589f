package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

/** OnlineSTL (paper §5): online additive seasonal-trend decomposition.
  *
  * Lifecycle: feed points with [[push]]. The first `4m` points (m = max
  * seasonality) are held in the window `A`; when the 4m-th arrives, the
  * one-time initialization (§5.2, symmetric tri-cube smoothing + cyclic
  * exponential smoothing) runs on `A` and the decompositions of all 4m
  * warm-up points are emitted at once. Every later point is decomposed
  * online (Algorithm 1) and emitted immediately.
  *
  * Cost: a point runs 2k + 1 trend filters `TF(k_λ, ·)` (`A` at 4m_p, `K_p`
  * at 3m_p, `D` at m; k periods) of one [[TrendKernel]]: O(1) each for the
  * default [[SlidingTricube]] (an O(k) update, O(m) init per period; beyond
  * the paper), O(Σ_p m_p) per update and O(m²) per init for the paper's ring
  * dots, [[TrendFilter]], the cost model of Table 2. The two agree to
  * rounding (≤1e-9 relative in the tests).
  *
  * State is O(4m) per series — sliding window `A` (4m), per-period seasonal
  * series `K_p` (3m_p, the span Algorithm 1 line 11 reads), phase estimates
  * `E_{p,T}` (m_p each), the deseasonalized window `D` (m), and the kernel's
  * `Slots` doubles per tracker (11 for the sliding kernel): 4m + 4·Σm_p + m +
  * 11·(2k + 1) doubles — which is what makes the algorithm usable as keyed
  * streaming state. `E_{p,S}` needs no array of its own: lines 8–9 push each
  * `E_{p,S}[r]` onto `K_p`, so phase r's estimate is `K_p`'s entry m_p back.
  * The trackers recompute their moments when `pointsSeen` is a multiple of
  * their λ, so that phase needs no counter. [[state]] is the record `repro.streaming` stores;
  * `Serializable` stays only for perfbench's java-serialized size probes.
  *
  * @param periods user-specified seasonality periods m_p (e.g. Seq(7, 28))
  * @param kernel the trend filters: [[TrendFilter]] for Table 2's paper rows
  *               and the oracle tests
  */
final class OnlineSTL(periods: Seq[Int], kernel: TrendKernel = SlidingTricube) extends Serializable {
  // The checks read `ps`, not `periods`: a require message closing over a
  // constructor parameter makes scalac keep it as a (serialized) field.
  private val ps = periods.toArray
  require(ps.nonEmpty, "at least one seasonality period is required")
  require(ps.forall(_ >= 2), s"periods must be >= 2, got ${ps.mkString(", ")}")
  require(ps.distinct.length == ps.length, s"periods must be distinct, got ${ps.mkString(", ")}")

  /** Max seasonality m (paper §5.1 item 3). */
  val m: Int = ps.max
  private val k = ps.length

  // --- state (§5.1) -------------------------------------------------------
  private val A = new CircularBuffer(4 * m)                       // latest 4m raw points
  private val K = ps.map(p => new CircularBuffer(3 * p))          // seasonal series per period
  private val ET = ps.map(p => new Array[Double](p))              // E_{p,T}
  private val D = new CircularBuffer(m)                           // deseasonalized last m
  // Trend trackers, kernel.Slots doubles each: A at 4m_p for period pi at
  // block pi, K_p at block k + pi, D at block 2k.
  private val mom = new Array[Double]((2 * k + 1) * kernel.Slots)
  private var seen: Long = 0L                                     // points consumed

  /** True once the init phase has run and updates are online. */
  def isReady: Boolean = A.isFull

  /** Points consumed so far. */
  def pointsSeen: Long = seen

  /** Feed one point; returns the decompositions emitted by it (empty while
    * warming up, the whole 4m-point backlog on the init step, one point after).
    */
  def push(x: Double): Seq[DecompPoint] = {
    if (A.isFull) Seq(update(x))
    else {
      A.push(x)
      seen += 1
      if (A.isFull) initialize(A.toArray) else Seq.empty
    }
  }

  /** Decompose a whole in-memory series (must have length >= 4m). */
  def decomposeAll(xs: Array[Double]): Decomposition = {
    require(xs.length >= 4 * m, s"need at least ${4 * m} points for init, got ${xs.length}")
    val pts = new ArrayBuffer[DecompPoint](xs.length)
    var i = 0
    while (i < xs.length) { pts ++= push(xs(i)); i += 1 }
    Decomposition.fromPoints(pts.toSeq, k)
  }

  // --- init (§5.2) --------------------------------------------------------
  // Working series W starts as the raw window and is progressively
  // deseasonalized; each period contributes its smoothed seasonal series.
  private def initialize(a0: Array[Double]): Seq[DecompPoint] = {
    val n = a0.length            // == 4m; init runs on the 4m-th point, so index 0 is point 0
    val w = a0.clone()
    val seasonalSeries = new Array[Array[Double]](k)
    var pi = 0
    while (pi < k) {
      val p = ps(pi)
      // 1. initial trend: symmetric filter, window 2m_p; detrend.
      val trend1 = kernel.symmetric(w, 2 * p)
      val t1series = minus(w, trend1)
      // 2. smooth cyclic subseries of the detrended series -> K_p.
      val sSeries = SeasonalityFilter.smoothCyclic(t1series, p)._1
      K(pi).pushAll(sSeries)
      // 3. trend of the seasonal series: symmetric, window 3m_p/2; remove it.
      val trendOfSeasonal = kernel.symmetric(sSeries, math.max(2, 3 * p / 2))
      val d5 = minus(t1series, trendOfSeasonal)
      // 4. smooth cyclic subseries of d5 -> E_{p,T} (the emitted seasonality).
      val (s2Series, perPhaseT) = SeasonalityFilter.smoothCyclic(d5, p)
      System.arraycopy(perPhaseT, 0, ET(pi), 0, p)
      seasonalSeries(pi) = s2Series
      // 5. deseasonalize the working series for the next period / final trend.
      var i = 0
      while (i < n) { w(i) -= s2Series(i); i += 1 }
      pi += 1
    }
    // D := last m of the fully deseasonalized series (§5.2 step 6).
    D.pushAll(w.takeRight(m))
    pi = 0
    while (pi < k) {
      kernel.reset(mom, block(pi), A, 4 * ps(pi))
      kernel.reset(mom, block(k + pi), K(pi), 3 * ps(pi))
      pi += 1
    }
    kernel.reset(mom, block(2 * k), D, m)
    // Emit decompositions for the warm-up window: final trend is the
    // symmetric window-m smooth of the deseasonalized series (the batch
    // analogue of Algorithm 1's final TF(k_m, D)).
    val finalTrend = kernel.symmetric(w, m)
    val out = new Array[DecompPoint](n)
    var i = 0
    while (i < n) {
      val seas = new Array[Double](k)
      pi = 0
      while (pi < k) { seas(pi) = seasonalSeries(pi)(i); pi += 1 }
      out(i) = DecompPoint.additive(i, a0(i), finalTrend(i), seas)
      i += 1
    }
    ArraySeq.unsafeWrapArray(out)
  }

  // `Array.tabulate` would box every element.
  private def minus(a: Array[Double], b: Array[Double]): Array[Double] = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) - b(i); i += 1 }
    out
  }

  // --- online update (Algorithm 1) ---------------------------------------
  private def update(x: Double): DecompPoint = {
    val g = seen // 0-based global index of this point
    seen += 1
    var pi = 0
    while (pi < k) { slide(pi, A, 4 * ps(pi), x); pi += 1 }
    A.push(x)
    var b = x
    val seas = new Array[Double](k)
    pi = 0
    while (pi < k) {
      val p = ps(pi)
      val r = (g % p).toInt
      // line 6: initial trend of the raw window, window 4m_p.
      val t1 = trend(pi, A, 4 * p)
      // lines 7-9: detrend, update E_{p,S}[r] (K_p's entry m_p back), extend K_p.
      feed(k + pi, K(pi), 3 * p, SeasonalityFilter.step(K(pi).fromEnd(p - 1), b - t1))
      // line 11: trend of the seasonal series, window 3m_p.
      val t4 = trend(k + pi, K(pi), 3 * p)
      // lines 12-13: fully detrended value updates E_{p,T}.
      val d5 = b - t1 - t4
      ET(pi)(r) = SeasonalityFilter.step(ET(pi)(r), d5)
      // line 14: deseasonalize b for the next period.
      seas(pi) = ET(pi)(r)
      b -= seas(pi)
      pi += 1
    }
    // lines 16-19: final trend from the deseasonalized window, then residual.
    feed(2 * k, D, m, b)
    DecompPoint.additive(g, x, trend(2 * k, D, m), seas)
  }

  /** A copy of the state (§5.1) as one record; [[OnlineSTL.restore]] inverts it. */
  def state: OnlineSTL.State = OnlineSTL.State(OnlineSTL.StateVersion, ps.clone(), seen,
    Array.concat((rings.map(_.toArray) ++ ET :+ mom).toIndexedSeq: _*))

  private def rings = A +: K :+ D // a def: java serialization would keep a field

  private def load(st: OnlineSTL.State): OnlineSTL = {
    require(st.version == 1 || st.version == OnlineSTL.StateVersion, s"unknown state version ${st.version}")
    require(st.periods.sameElements(ps),
      s"state has periods ${st.periods.mkString(", ")}, not ${ps.mkString(", ")}")
    val held = rings.map(r => if (st.seen >= 4L * m) r.capacity else if (r eq A) st.seen.toInt else 0)
    val es = if (st.version == 1) ps.sum else 0 // version 1 also wrote each E_{p,S}
    val n = held.sum + es + ps.sum + mom.length
    require(st.seen >= 0 && st.values.length == n,
      s"state holds ${st.values.length} values for seen = ${st.seen}, not $n")
    val it = st.values.patch(held.sum, Nil, es).iterator
    rings.zip(held).foreach { case (r, len) => r.pushAll(Array.fill(len)(it.next())) }
    (ET :+ mom).foreach(a => a.indices.foreach(a(_) = it.next()))
    seen = st.seen
    this
  }

  // --- trend filters: tracker t at block(t) of mom -------------------------
  private def block(t: Int): Int = t * kernel.Slots

  /** Tracker `t` takes `x` as its newest point before `ring.push(x)`; `seen` counts `x`. */
  private def slide(t: Int, ring: CircularBuffer, lambda: Int, x: Double): Unit =
    kernel.advance(mom, block(t), ring, lambda, x, refresh = seen % lambda == 0)

  private def feed(t: Int, ring: CircularBuffer, lambda: Int, x: Double): Unit = {
    slide(t, ring, lambda, x)
    ring.push(x)
  }

  private def trend(t: Int, ring: CircularBuffer, lambda: Int): Double =
    kernel.value(mom, block(t), ring, lambda)
}

object OnlineSTL {
  final val StateVersion = 2 // of State's layout

  /** One key's state, the keyed state of the streaming deployment: every ring
    * oldest first (`A`, each `K_p`, `D`; `K_p` and `D` are empty until init),
    * then each `E_{p,T}` and the tracker moments, verbatim. [[restore]] also
    * reads version 1, which held each `E_{p,S}` before the `E_{p,T}`.
    */
  final case class State(version: Int, periods: Array[Int], seen: Long, values: Array[Double])

  /** A default-kernel instance that goes on exactly (`==`) where the one that made `st`
    * stopped. Throws `IllegalArgumentException` unless `st`'s version, periods and length fit.
    */
  def restore(periods: Seq[Int], st: State): OnlineSTL = new OnlineSTL(periods).load(st)
}
