package repro.core

/** The trend filter `TF(k_λ, ·)` of paper §4.1 as [[OnlineSTL]] runs it: the
  * default [[SlidingTricube]] (O(1) per point) or the paper's ring dots,
  * [[TrendFilter]] (O(λ)). A tracker filters the last λ points of a caller's
  * ring and keeps [[Slots]] doubles at offset `o` of the caller's array `s`.
  */
trait TrendKernel extends Serializable {
  def Slots: Int
  /** The centred smoothing of the init phase (§5.2). */
  def symmetric(xs: Array[Double], window: Int): Array[Double]
  /** Set the tracker to the last `min(λ, ring.size)` points of `ring`. */
  def reset(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int): Unit = ()
  /** Take `x` as the newest point, before `ring.push(x)`; `refresh` every λ points. */
  def advance(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int, x: Double, refresh: Boolean): Unit = ()
  /** The trend: the tri-cube weighted mean of the window. */
  def value(s: Array[Double], o: Int, ring: CircularBuffer, lambda: Int): Double
}
