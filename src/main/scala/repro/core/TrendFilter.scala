package repro.core

/** Trend filters (paper §4.1), the paper's [[TrendKernel]].
  *
  * - [[TrendFilter.nonSymmetric]] is the online filter `TF(k_λ, X_t)`: a
  *   tri-cube-weighted average over the last λ points, newest point heaviest.
  * - [[TrendFilter.symmetric]] is the batch variant used only during the
  *   one-time initialization (§5.2): a centered tri-cube-weighted average
  *   over ±⌈w/2⌉ neighbours, truncated (and renormalized) at the edges.
  */
object TrendFilter extends TrendKernel {
  final val Slots = 0
  def value(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int): Double = nonSymmetric(ring, lambda)

  /** `TF(k_λ, ·)` on a ring buffer: weighted mean of the last λ elements.
    * If the buffer holds fewer than λ points, the trailing portion of the
    * kernel is used and renormalized (warm-up behaviour).
    */
  def nonSymmetric(buf: CircularBuffer, lambda: Int): Double = {
    val k = TricubeKernel.weights(lambda)
    val (dot, mass) = buf.dotFromEnd(k)
    if (mass <= 0.0) buf.last else dot / mass
  }

  /** Symmetric tri-cube smoothing of the whole series with window `window`
    * (total span; half-width h = max(1, window/2)). Edge windows are
    * truncated and renormalized. Used in the init phase only.
    */
  def symmetric(xs: Array[Double], window: Int): Array[Double] = {
    require(window > 0, s"window must be positive, got $window")
    val n = xs.length
    val h = math.max(1, window / 2)
    // Precompute symmetric weights by distance d = 0..h ; u = d/(h+1) < 1.
    val wByDist = new Array[Double](h + 1)
    var d = 0
    while (d <= h) { wByDist(d) = TricubeKernel.W(d.toDouble / (h + 1)); d += 1 }
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      val lo = math.max(0, i - h)
      val hi = math.min(n - 1, i + h)
      var dot = 0.0; var mass = 0.0
      var j = lo
      while (j <= hi) {
        val wk = wByDist(math.abs(j - i))
        dot += wk * xs(j)
        mass += wk
        j += 1
      }
      out(i) = if (mass > 0.0) dot / mass else xs(i)
      i += 1
    }
    out
  }
}
