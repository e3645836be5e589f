package repro.baselines

import repro.core.Decomposition

/** Classical STL (Cleveland et al., 1990) — the paper's strongest batch
  * baseline ("offline stl", throughput class O(100)/s).
  *
  * Inner loop per iteration: detrend → cycle-subseries loess smoothing →
  * low-pass filter (3 moving averages + loess) → seasonal = smoothed cycles
  * minus low-pass → deseasonalize → trend loess. Uses STL's `jump` trick
  * (fit every jump-th point, interpolate) which is why real STL stays ~100x
  * faster than the optimization-based baselines. Robustness iterations are
  * omitted (n_o = 0), matching the non-robust configuration.
  */
final class BatchSTL extends Decomposer {
  override def name: String = "stl"

  private final val Ns = 7    // seasonal loess span in *cycles* (the STL default)
  private final val Inner = 2 // inner-loop iterations

  override def decompose(xs: Array[Double], periods: Seq[Int]): Decomposition = {
    require(periods.size == 1, s"classical STL is single-seasonality; use MSTL for $periods")
    val m = periods.head
    val (t, s) = innerLoop(xs, m)
    Decomposition.additive(xs, t, Seq(s))
  }

  /** Runs the STL inner loop; returns (trend, seasonal). */
  private[baselines] def innerLoop(xs: Array[Double], m: Int): (Array[Double], Array[Double]) = {
    val n = xs.length
    require(n >= 2 * m, s"series of $n too short for period $m")
    val nl = nextOdd(m)                                   // low-pass span
    val nt = nextOdd(math.ceil(1.5 * m / (1.0 - 1.5 / Ns)).toInt) // trend span
    var trend = new Array[Double](n)
    var seasonal = new Array[Double](n)
    var it = 0
    while (it < Inner) {
      // 1. detrend
      val detrended = Array.tabulate(n)(i => xs(i) - trend(i))
      // 2. cycle-subseries smoothing, extended one period each side -> length n + 2m
      val c = cycleSubseriesSmooth(detrended, m)
      // 3. low-pass: MA(m) ∘ MA(m) ∘ MA(3), then loess(nl)
      val lp0 = movingAverage(movingAverage(movingAverage(c, m), m), 3)
      require(lp0.length == n, s"low-pass length ${lp0.length} != $n")
      val lp = Loess.smooth(lp0, nl, degree = 1, jump = jumpFor(nl))
      // 4. seasonal = centered smoothed cycles
      seasonal = Array.tabulate(n)(i => c(i + m) - lp(i))
      // 5-6. deseasonalize, smooth for trend
      val deseas = Array.tabulate(n)(i => xs(i) - seasonal(i))
      trend = Loess.smooth(deseas, nt, degree = 1, jump = jumpFor(nt))
      it += 1
    }
    (trend, seasonal)
  }

  /** Loess-smooth each cyclic subseries and extend one period at both ends. */
  private def cycleSubseriesSmooth(d: Array[Double], m: Int): Array[Double] = {
    val n = d.length
    val out = new Array[Double](n + 2 * m)
    var phase = 0
    while (phase < m) {
      val idxs = phase.until(n, m).toArray
      val sub = idxs.map(d)
      val sm = Loess.smooth(sub, Ns, degree = 1)
      // body
      var j = 0
      while (j < idxs.length) { out(idxs(j) + m) = sm(j); j += 1 }
      // extend one cycle each side by extrapolating the smoothed endpoints
      out(phase) = sm.head
      val lastIdx = idxs.last + 2 * m
      if (lastIdx < out.length) out(lastIdx) = sm.last
      phase += 1
    }
    // n >= 2m guarantees every phase occurs in the first and last m body
    // positions, so head slots 0..m-1 and tail slots n+m..n+2m-1 are all set.
    out
  }

  /** Centered moving average of window w; output shrinks by w - 1. */
  private[baselines] def movingAverage(xs: Array[Double], w: Int): Array[Double] = {
    val n = xs.length - w + 1
    require(n > 0, s"series of ${xs.length} too short for MA($w)")
    val out = new Array[Double](n)
    var s = 0.0
    var i = 0
    while (i < w) { s += xs(i); i += 1 }
    out(0) = s / w
    i = 1
    while (i < n) { s += xs(i + w - 1) - xs(i - 1); out(i) = s / w; i += 1 }
    out
  }

  private def jumpFor(span: Int): Int = math.max(1, span / 10)
  private def nextOdd(v: Int): Int = if (v % 2 == 0) v + 1 else v
}
