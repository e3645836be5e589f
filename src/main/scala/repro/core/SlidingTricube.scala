package repro.core

/** Constant-time tri-cube trend filter: the value of
  * [[TrendFilter.nonSymmetric]] kept up to date by sliding moments instead of
  * a ring dot product (beyond the paper; Seifert, Brockmann, Engel & Gasser
  * 1994, "Fast algorithms for nonparametric curve estimation").
  *
  * `W(u) = (1 − u³)³ = 1 − 3u³ + 3u⁶ − u⁹` is a polynomial, so the trailing sum
  * `Σ_i W(i/λ) x_{t−i}` over the last λ points (i = 0 is the newest) is
  * `M₀ − 3M₃ + 3M₆ − M₉` with moments `M_j = Σ_i (i/λ)^j x_{t−i}`. A tracker
  * keeps them scaled by λ^j, `P_j = Σ_i i^j x_{t−i}`. When a point arrives
  * every other point moves one step back, `i → i + 1`, and the binomial
  * theorem gives `P_j ← Σ_{l≤j} C(j,l) P_l`: nine passes of Pascal's rule,
  * 45 additions. The evicted point, now at `i = λ`, is subtracted (`λ^j x`
  * from `P_j`) and the new point adds `x` to `P₀` only. That is O(1) per
  * point whatever λ is. (Unscaled, the shift needs `C(j,l) λ^{l−j}` factors:
  * twice the work and, at λ = 40000, 20 times the rounding error.)
  *
  * A tracker is not an object: it is a block of [[Slots]] doubles at an
  * offset of a caller's array (the ten moments, then the weight mass), so
  * the trackers of one [[OnlineSTL]] are one flat field of its state. The
  * block tracks one (ring, λ) pair; the ring is the caller's and may hold
  * more than λ points.
  *
  * Drift: shifting keeps rounding errors but never evicts them, and an
  * error that entered `P₀` s steps ago weighs `s^j` in `P_j`. A caller
  * therefore passes `refresh = true` once every λ steps, and the moments are
  * then recomputed exactly from the window (O(λ) every λ steps, O(1)
  * amortized), which keeps that weight within `λ^j`, the weight of a point
  * in the window.
  */
object SlidingTricube extends TrendKernel {
  /** Doubles per tracker: `P₀ … P₉`, then the weight mass. */
  final val Slots = 11
  private final val Mass = 10

  /** Set the tracker at `s(o)` to the window of the last
    * `min(λ, ring.size)` elements of `ring`, computed exactly.
    */
  override def reset(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int): Unit =
    exact(s, o, ring, lambda, lead = 0, 0.0)

  /** Slide the window one step so that `x` is its newest point. Call it
    * *before* `ring.push(x)`: the point that leaves the window is read from
    * the ring. With `refresh` the moments are recomputed from the ring and
    * `x` instead of shifted.
    */
  override def advance(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int, x: Double,
                       refresh: Boolean): Unit = {
    if (refresh) exact(s, o, ring, lambda, lead = 1, x)
    else {
      var p0 = s(o); var p1 = s(o + 1); var p2 = s(o + 2); var p3 = s(o + 3); var p4 = s(o + 4)
      var p5 = s(o + 5); var p6 = s(o + 6); var p7 = s(o + 7); var p8 = s(o + 8); var p9 = s(o + 9)
      // i → i + 1: P_j ← Σ_{l≤j} C(j,l) P_l, pass by pass.
      p9 += p8; p8 += p7; p7 += p6; p6 += p5; p5 += p4; p4 += p3; p3 += p2; p2 += p1; p1 += p0
      p9 += p8; p8 += p7; p7 += p6; p6 += p5; p5 += p4; p4 += p3; p3 += p2; p2 += p1
      p9 += p8; p8 += p7; p7 += p6; p6 += p5; p5 += p4; p4 += p3; p3 += p2
      p9 += p8; p8 += p7; p7 += p6; p6 += p5; p5 += p4; p4 += p3
      p9 += p8; p8 += p7; p7 += p6; p6 += p5; p5 += p4
      p9 += p8; p8 += p7; p7 += p6; p6 += p5
      p9 += p8; p8 += p7; p7 += p6
      p9 += p8; p8 += p7
      p9 += p8
      if (ring.size >= lambda) {
        val g0 = ring.fromEnd(lambda - 1) // the evicted point, at i = λ
        val l = lambda.toDouble
        val g1 = g0 * l; val g2 = g1 * l; val g3 = g2 * l; val g4 = g3 * l; val g5 = g4 * l
        val g6 = g5 * l; val g7 = g6 * l; val g8 = g7 * l; val g9 = g8 * l
        p0 -= g0; p1 -= g1; p2 -= g2; p3 -= g3; p4 -= g4; p5 -= g5; p6 -= g6; p7 -= g7; p8 -= g8; p9 -= g9
      } else s(o + Mass) += TricubeKernel.W(ring.size.toDouble / lambda)
      s(o) = p0 + x; s(o + 1) = p1; s(o + 2) = p2; s(o + 3) = p3; s(o + 4) = p4
      s(o + 5) = p5; s(o + 6) = p6; s(o + 7) = p7; s(o + 8) = p8; s(o + 9) = p9
    }
  }

  /** Weighted sum `Σ_i W(i/λ) x_{t−i}` over the window of the tracker at
    * `s(o)`, whose window is λ.
    */
  private def dot(s: Array[Double], o: Int, lambda: Int): Double = {
    val h = 1.0 / lambda; val h3 = h * h * h; val h6 = h3 * h3
    s(o) - 3.0 * h3 * s(o + 3) + 3.0 * h6 * s(o + 6) - h6 * h3 * s(o + 9)
  }

  /** Weight mass `Σ_i W(i/λ)` over the window (constant once it is full). */
  private def mass(s: Array[Double], o: Int): Double = s(o + Mass)

  /** The trend `TF(k_λ, ·)`: the weighted mean of the window. */
  def value(s: Array[Double], o: Int, lambda: Int): Double = dot(s, o, lambda) / mass(s, o)
  def value(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int): Double = value(s, o, lambda)

  /** Compute the tracker anew: `x` at i = 0 if `lead` is 1, then
    * the ring's elements newest first. The mass is summed newest first, in
    * the order of [[CircularBuffer.dotFromEnd]], from the same weights.
    */
  private def exact(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int, lead: Int,
                    x: Double): Unit = {
    var p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, mass = 0.0
    if (lead == 1) { p0 = x; mass = 1.0 }
    val n = math.min(lambda - lead, ring.size)
    var k = 0
    while (k < n) {
      val y = ring.fromEnd(k)
      val i = (k + lead).toDouble
      val i2 = i * i; val i3 = i2 * i; val i4 = i2 * i2; val i6 = i3 * i3; val i8 = i4 * i4
      p0 += y; p1 += i * y; p2 += i2 * y; p3 += i3 * y; p4 += i4 * y
      p5 += i4 * i * y; p6 += i6 * y; p7 += i6 * i * y; p8 += i8 * y; p9 += i8 * i * y
      mass += TricubeKernel.W(i / lambda)
      k += 1
    }
    s(o) = p0; s(o + 1) = p1; s(o + 2) = p2; s(o + 3) = p3; s(o + 4) = p4
    s(o + 5) = p5; s(o + 6) = p6; s(o + 7) = p7; s(o + 8) = p8; s(o + 9) = p9
    s(o + Mass) = mass
  }

  /** The symmetric smoothing of [[TrendFilter.symmetric]] in O(n) instead
    * of O(n·h): the centred sum over distances `0…h` is a trailing sum over
    * `xs` (distances back) plus one over reversed `xs` (distances ahead),
    * both with `λ = h + 1` so that `u = d/(h+1)`, less the centre counted
    * twice. Near the edges a window is cut short; a tracker that is still
    * filling holds the cumulative weight of the distances it has seen, which
    * is the truncated mass of that side.
    */
  def symmetric(xs: Array[Double], window: Int): Array[Double] = {
    require(window > 0, s"window must be positive, got $window")
    val n = xs.length
    val lambda = math.max(1, window / 2) + 1
    val (backDot, backMass) = trailing(xs, lambda, reverse = false)
    val (aheadDot, aheadMass) = trailing(xs, lambda, reverse = true)
    val out = new Array[Double](n)
    var i = 0
    while (i < n) {
      out(i) = (backDot(i) + aheadDot(i) - xs(i)) / (backMass(i) + aheadMass(i) - 1.0)
      i += 1
    }
    out
  }

  /** One tracker run over `xs` (back to front with `reverse`): the window's
    * dot and mass after each point, at that point's index.
    */
  private def trailing(xs: Array[Double], lambda: Int, reverse: Boolean): (Array[Double], Array[Double]) = {
    val n = xs.length
    val dots = new Array[Double](n)
    val masses = new Array[Double](n)
    val ring = new CircularBuffer(lambda)
    val s = new Array[Double](Slots)
    var k = 0
    while (k < n) {
      val i = if (reverse) n - 1 - k else k
      advance(s, 0, ring, lambda, xs(i), refresh = (k + 1) % lambda == 0)
      ring.push(xs(i))
      dots(i) = dot(s, 0, lambda)
      masses(i) = mass(s, 0)
      k += 1
    }
    (dots, masses)
  }
}
