package repro.core

/** Seasonality filter (paper §4.2): exponential smoothing over each cyclic
  * subseries. For a detrended series D with period m, the k-th cyclic
  * subseries is {d_r : r ≡ k (mod m)}; each is smoothed independently with
  * `c_new = γ·d + (1-γ)·c_old`, γ = 0.7.
  */
object SeasonalityFilter {
  /** The smoothing parameter γ, which the paper fixes (§5.1 item 7). */
  val Gamma = 0.7

  /** Single-step update of one phase estimate. */
  @inline def step(estimate: Double, d: Double): Double = Gamma * d + (1.0 - Gamma) * estimate

  /** Smooth a whole series cyclically. Returns (seasonalSeries, finalPerPhase):
    * `seasonalSeries(i)` is the smoothed value of i's cyclic subseries *after*
    * absorbing point i; `finalPerPhase(r)` is the last smoothed value of phase
    * r (the `E[r]` arrays of §5.2). Index 0 is phase 0, as in init.
    */
  def smoothCyclic(xs: Array[Double], m: Int): (Array[Double], Array[Double]) = {
    require(m > 0, s"period must be positive, got $m")
    val series = new Array[Double](xs.length)
    val perPhase = new Array[Double](m)
    var i = 0
    while (i < xs.length) {
      val r = i % m
      perPhase(r) = if (i < m) xs(i) else step(perPhase(r), xs(i)) // the first of a phase seeds it
      series(i) = perPhase(r)
      i += 1
    }
    (series, perPhase)
  }
}
