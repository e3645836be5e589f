package repro.core

/** Tri-cube kernel weights (paper §4.1.1).
  *
  * `W(u) = (1 - u³)³` for `0 ≤ u < 1`, else 0. For a window λ the pre-stored
  * kernel is `k_λ = {w_k}` with `w_k = W((λ-k)/λ)`, k = 1..λ — so the newest
  * point (k = λ) carries weight W(0) = 1 and the oldest carries the smallest
  * nonzero weight. Kernels are deterministic in λ and cached.
  */
object TricubeKernel {

  /** The tri-cube weight function W. */
  def W(u: Double): Double =
    if (u >= 0.0 && u < 1.0) { val c = 1.0 - u * u * u; c * c * c }
    else 0.0

  private val cache = new java.util.concurrent.ConcurrentHashMap[Int, Array[Double]]()

  /** Pre-stored kernel `k_λ`, index 0 = oldest point, index λ-1 = newest. */
  def weights(lambda: Int): Array[Double] = {
    require(lambda > 0, s"window must be positive, got $lambda")
    cache.computeIfAbsent(lambda, l => {
      val out = new Array[Double](l)
      var k = 1
      while (k <= l) {
        out(k - 1) = W((l - k).toDouble / l)
        k += 1
      }
      out
    })
  }
}
