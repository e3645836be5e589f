package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import scala.collection.mutable.ArrayBuffer

/** OnlineSTL (paper §5): online additive seasonal-trend decomposition.
  *
  * Lifecycle: feed points with [[push]]. The first `4m` points (m = max
  * seasonality) are held in the window `A`; when the 4m-th arrives, the
  * one-time initialization (§5.2, symmetric tri-cube smoothing + cyclic
  * exponential smoothing) runs on `A` and the decompositions of all 4m
  * warm-up points are emitted at once. Every later point is decomposed
  * online (Algorithm 1) in O(Σ_p m_p) time and emitted immediately.
  *
  * State is O(4m) per series — sliding window `A` (4m), per-period seasonal
  * series `K_p` (3m_p, the span Algorithm 1 line 11 reads), phase estimates
  * `E_{p,S}`/`E_{p,T}` (m_p each), and the deseasonalized window `D` (m):
  * 4m + 5·Σm_p + m doubles — which is what makes the algorithm usable as
  * keyed streaming state. The class is Serializable for exactly that use;
  * [[OnlineSTL.toBytes]]/[[OnlineSTL.fromBytes]] are the state codec the
  * streaming deployment stores (see `repro.streaming`).
  *
  * @param periods user-specified seasonality periods m_p (e.g. Seq(7, 28))
  * @param gamma   seasonality-filter smoothing factor (paper fixes 0.7)
  */
final class OnlineSTL(periods: Seq[Int], val gamma: Double = SeasonalityFilter.DefaultGamma)
    extends Serializable {
  // The checks read `ps`, not `periods`: a require message closing over a
  // constructor parameter makes scalac keep it as a (serialized) field.
  private val ps = periods.toArray
  require(ps.nonEmpty, "at least one seasonality period is required")
  require(ps.forall(_ >= 2), s"periods must be >= 2, got ${ps.mkString(", ")}")
  require(ps.distinct.length == ps.length, s"periods must be distinct, got ${ps.mkString(", ")}")
  require(gamma > 0.0 && gamma <= 1.0, s"gamma must be in (0,1], got $gamma")

  /** Max seasonality m (paper §5.1 item 3). */
  val m: Int = ps.max
  private val k = ps.length

  // --- state (§5.1) -------------------------------------------------------
  private val A = new CircularBuffer(4 * m)                       // latest 4m raw points
  private val K = ps.map(p => new CircularBuffer(3 * p))          // seasonal series per period
  private val ES = ps.map(p => new Array[Double](p))              // E_{p,S}
  private val ET = ps.map(p => new Array[Double](p))              // E_{p,T}
  private val D = new CircularBuffer(m)                           // deseasonalized last m
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
      val trend1 = TrendFilter.symmetric(w, 2 * p)
      val t1series = Array.tabulate(n)(i => w(i) - trend1(i))
      // 2. smooth cyclic subseries of the detrended series -> K_p, E_{p,S}.
      val (sSeries, perPhaseS) = SeasonalityFilter.smoothCyclic(t1series, p, gamma)
      System.arraycopy(perPhaseS, 0, ES(pi), 0, p)
      K(pi).pushAll(sSeries)
      // 3. trend of the seasonal series: symmetric, window 3m_p/2; remove it.
      val trendOfSeasonal = TrendFilter.symmetric(sSeries, math.max(2, 3 * p / 2))
      val d5 = Array.tabulate(n)(i => t1series(i) - trendOfSeasonal(i))
      // 4. smooth cyclic subseries of d5 -> E_{p,T} (the emitted seasonality).
      val (s2Series, perPhaseT) = SeasonalityFilter.smoothCyclic(d5, p, gamma)
      System.arraycopy(perPhaseT, 0, ET(pi), 0, p)
      seasonalSeries(pi) = s2Series
      // 5. deseasonalize the working series for the next period / final trend.
      var i = 0
      while (i < n) { w(i) -= s2Series(i); i += 1 }
      pi += 1
    }
    // D := last m of the fully deseasonalized series (§5.2 step 6).
    D.pushAll(w.takeRight(m))
    // Emit decompositions for the warm-up window: final trend is the
    // symmetric window-m smooth of the deseasonalized series (the batch
    // analogue of Algorithm 1's final TF(k_m, D)).
    val finalTrend = TrendFilter.symmetric(w, m)
    (0 until n).map { i =>
      DecompPoint.additive(i, a0(i), finalTrend(i), Array.tabulate(k)(pi => seasonalSeries(pi)(i)))
    }
  }

  // --- online update (Algorithm 1) ---------------------------------------
  private def update(x: Double): DecompPoint = {
    val g = seen // 0-based global index of this point
    seen += 1
    A.push(x)
    var b = x
    val seas = new Array[Double](k)
    var pi = 0
    while (pi < k) {
      val p = ps(pi)
      val r = (g % p).toInt
      // line 6: initial trend of the raw window, window 4m_p.
      val t1 = TrendFilter.nonSymmetric(A, 4 * p)
      // lines 7-9: detrend, update E_{p,S}, extend the seasonal series K_p.
      val d1 = b - t1
      ES(pi)(r) = SeasonalityFilter.step(ES(pi)(r), d1, gamma)
      K(pi).push(ES(pi)(r))
      // line 11: trend of the seasonal series, window 3m_p.
      val t4 = TrendFilter.nonSymmetric(K(pi), 3 * p)
      // lines 12-13: fully detrended value updates E_{p,T}.
      val d5 = b - t1 - t4
      ET(pi)(r) = SeasonalityFilter.step(ET(pi)(r), d5, gamma)
      // line 14: deseasonalize b for the next period.
      seas(pi) = ET(pi)(r)
      b -= seas(pi)
      pi += 1
    }
    // lines 16-19: final trend from the deseasonalized window, then residual.
    D.push(b)
    DecompPoint.additive(g, x, TrendFilter.nonSymmetric(D, m), seas)
  }
}

object OnlineSTL {
  /** The state codec: the java-serialized bytes of `stl`, which is what the
    * streaming deployment stores per key.
    */
  def toBytes(stl: OnlineSTL): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new ObjectOutputStream(bos)
    out.writeObject(stl)
    out.close()
    bos.toByteArray
  }

  /** Inverse of [[toBytes]]. */
  def fromBytes(bytes: Array[Byte]): OnlineSTL = {
    val in = new ObjectInputStream(new ByteArrayInputStream(bytes))
    try in.readObject().asInstanceOf[OnlineSTL] finally in.close()
  }
}
