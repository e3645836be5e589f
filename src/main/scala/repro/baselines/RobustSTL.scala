package repro.baselines

import repro.core.Decomposition
import repro.linalg.CG

/** RobustSTL (Wen et al., 2018) and its multi-seasonal extension
  * Fast-RobustSTL (Wen et al., 2020), reproduced as the paper describes the
  * pipeline: bilateral denoising filter → optimization-based robust trend
  * extraction (ℓ1 loss with ℓ1 sparse regularization on the first and second
  * differences, solved by IRLS with CG inner solves — the iterative
  * optimization that puts these methods in the O(1)/s class) → non-local
  * seasonal filter over matching phases of previous periods.
  *
  * `multiSeasonal = true` gives the Fast-RobustSTL behaviour: seasonal
  * components extracted sequentially per period on the progressively
  * deseasonalized series.
  */
final class RobustSTL(multiSeasonal: Boolean = false) extends Decomposer {
  override def name: String = if (multiSeasonal) "frobustSTL" else "RobustSTL"

  private final val DenoiseH = 3      // bilateral filter half-width
  private final val Lambda1 = 20.0    // ℓ1 weight on ΔT
  private final val Lambda2 = 200.0   // ℓ1 weight on Δ²T
  private final val IrlsIters = 8
  private final val CgIters = 60      // CG iterations per IRLS step
  private final val SeasonalK = 2     // neighbouring periods each side
  private final val SeasonalH = 2     // phase offsets each side

  override def decompose(xs: Array[Double], periods: Seq[Int]): Decomposition = {
    if (!multiSeasonal)
      require(periods.size == 1, s"RobustSTL is single-seasonality; got $periods")
    val n = xs.length
    val denoised = bilateralDenoise(xs)
    val ms = periods.sorted.reverse // extract longest period first
    val work = denoised.clone()
    val seasByPeriod = scala.collection.mutable.Map.empty[Int, Array[Double]]
    var trend = new Array[Double](n)
    for (m <- ms) {
      // rough seasonal adjustment (cyclic means) before the robust trend solve
      val rough = cyclicMeans(work, m)
      val adjusted = Array.tabulate(n)(t => work(t) - rough(t % m))
      trend = robustTrend(adjusted)
      val detrended = Array.tabulate(n)(t => work(t) - trend(t))
      val s = nonLocalSeasonal(detrended, m)
      seasByPeriod(m) = s
      var t = 0
      while (t < n) { work(t) -= s(t); t += 1 }
    }
    // final robust trend on the fully deseasonalized (denoised) series
    trend = robustTrend(work)
    Decomposition.additive(xs, trend, periods.map(seasByPeriod))
  }

  /** Bilateral filter: Gaussian in both time distance and value distance. */
  private[baselines] def bilateralDenoise(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    val sigmaT = math.max(1.0, DenoiseH / 2.0)
    val diffs = Array.tabulate(math.max(n - 1, 1))(i => if (n > 1) xs(i + 1) - xs(i) else 0.0)
    val dMean = diffs.sum / diffs.length
    val sigmaV = math.max(1e-9,
      math.sqrt(diffs.map(d => (d - dMean) * (d - dMean)).sum / diffs.length))
    Array.tabulate(n) { t =>
      var sw = 0.0; var sv = 0.0
      var j = math.max(0, t - DenoiseH)
      val hi = math.min(n - 1, t + DenoiseH)
      while (j <= hi) {
        val dt = (j - t).toDouble
        val dv = xs(j) - xs(t)
        val w = math.exp(-dt * dt / (2 * sigmaT * sigmaT)) *
                math.exp(-dv * dv / (2 * sigmaV * sigmaV))
        sw += w; sv += w * xs(j)
        j += 1
      }
      sv / sw
    }
  }

  private def cyclicMeans(xs: Array[Double], m: Int): Array[Double] = {
    val sums = new Array[Double](m); val cnt = new Array[Int](m)
    var t = 0
    while (t < xs.length) { sums(t % m) += xs(t); cnt(t % m) += 1; t += 1 }
    Array.tabulate(m)(r => if (cnt(r) > 0) sums(r) / cnt(r) else 0.0)
  }

  /** IRLS for min_T Σ|y-T| + λ1||ΔT||₁ + λ2||Δ²T||₁ — ℓ1 terms become
    * reweighted ℓ2, each inner problem solved by CG on the sparse normal
    * equations.
    */
  private[baselines] def robustTrend(y: Array[Double]): Array[Double] = {
    val n = y.length
    // Huber-style floor on the IRLS weights, scaled to the data: without it
    // the first iteration (residual 0 at the start point) produces infinite
    // data weights and the solver never leaves the data.
    val spread = {
      val mean = y.sum / n
      math.max(1e-9, math.sqrt(y.map(v => (v - mean) * (v - mean)).sum / n))
    }
    val delta = 0.05 * spread
    var t: Array[Double] = null // null = first iteration, unit weights (L2 warm start)
    var it = 0
    while (it < IrlsIters) {
      val cur = t
      val wData = Array.tabulate(n)(i =>
        if (cur == null) 1.0 else 1.0 / math.max(math.abs(y(i) - cur(i)), delta))
      val wD1 = Array.tabulate(n - 1)(i =>
        if (cur == null) 1.0 else 1.0 / math.max(math.abs(cur(i + 1) - cur(i)), delta))
      val wD2 = Array.tabulate(math.max(n - 2, 0))(i =>
        if (cur == null) 1.0
        else 1.0 / math.max(math.abs(cur(i) - 2 * cur(i + 1) + cur(i + 2)), delta))

      def applyA(v: Array[Double]): Array[Double] = {
        val out = new Array[Double](n)
        var i = 0
        while (i < n) { out(i) = wData(i) * v(i); i += 1 }
        i = 0
        while (i < n - 1) {
          val d = v(i + 1) - v(i)
          val c = Lambda1 * wD1(i) * d
          out(i) -= c; out(i + 1) += c
          i += 1
        }
        i = 0
        while (i < n - 2) {
          val d = v(i) - 2 * v(i + 1) + v(i + 2)
          val c = Lambda2 * wD2(i) * d
          out(i) += c; out(i + 1) -= 2 * c; out(i + 2) += c
          i += 1
        }
        out
      }
      val rhs = Array.tabulate(n)(i => wData(i) * y(i))
      t = CG.solve(applyA, rhs, maxIter = CgIters, tol = 1e-8, x0 = Option(cur))
      it += 1
    }
    t
  }

  /** Non-local seasonal filter: weighted average over the same phase (±H) in
    * the K previous and K following periods, weights Gaussian in both season
    * distance and value distance. Output re-centered to zero mean per period.
    */
  private[baselines] def nonLocalSeasonal(d: Array[Double], m: Int): Array[Double] = {
    val n = d.length
    // Value gate at the *noise* scale, estimated robustly from lag-m
    // differences (a stationary seasonal pattern cancels at lag m, so only
    // noise remains). A signal-scale gate would let neighbouring phases with
    // large seasonal values bleed in and attenuate the pattern.
    val sigmaV = {
      val diffs = (m until n).map(i => d(i) - d(i - m)).sortBy(math.abs)
      val mad = if (diffs.nonEmpty) math.abs(diffs(diffs.length / 2)) else 0.0
      math.max(1e-9, 1.4826 * mad / math.sqrt(2.0))
    }
    val out = Array.tabulate(n) { t =>
      var sw = 0.0; var sv = 0.0
      var j = -SeasonalK
      while (j <= SeasonalK) {
        var h = -SeasonalH
        while (h <= SeasonalH) {
          val tp = t + j * m + h
          if (tp >= 0 && tp < n) {
            val dv = d(tp) - d(t)
            val w = math.exp(-(j * j).toDouble / 2.0) *
                    math.exp(-(h * h).toDouble / 2.0) *
                    math.exp(-dv * dv / (2 * sigmaV * sigmaV))
            sw += w; sv += w * d(tp)
          }
          h += 1
        }
        j += 1
      }
      if (sw > 0) sv / sw else d(t)
    }
    // remove the level (grand mean) so the pattern sums to ~0 over a period
    // and the series level stays in the trend component
    val grand = out.sum / n
    Array.tabulate(n)(t => out(t) - grand)
  }
}
