package repro.core

/** Fixed-capacity ring buffer of doubles — the `UpdateArray` primitive of the
  * paper (§5.1, item 9): pushing replaces the oldest element.
  *
  * OnlineSTL needs (a) O(1) push and `fromEnd` reads, and, on the paper's
  * kernel only ([[TrendFilter]]), (b) a dot product of a kernel against the
  * *last w* elements; both work on the ring without copying.
  */
final class CircularBuffer(val capacity: Int) extends Serializable {
  require(capacity > 0, s"capacity must be positive, got $capacity")

  private val data = new Array[Double](capacity)
  private var writePos = 0   // next slot to write
  private var filled   = 0   // number of valid elements (<= capacity)

  /** Number of elements currently held. */
  def size: Int = filled

  def isFull: Boolean = filled == capacity

  /** Append `x`, evicting the oldest element once full. */
  def push(x: Double): Unit = {
    data(writePos) = x
    writePos = writePos + 1
    if (writePos == capacity) writePos = 0
    if (filled < capacity) filled += 1
  }

  /** The most recent element. */
  def last: Double = {
    require(filled > 0, "buffer is empty")
    val i = if (writePos == 0) capacity - 1 else writePos - 1
    data(i)
  }

  /** Element `k` steps back from the newest (k = 0 is the newest). */
  def fromEnd(k: Int): Double = {
    require(k >= 0 && k < filled, s"index $k out of range (size $filled)")
    var i = writePos - 1 - k
    if (i < 0) i += capacity
    data(i)
  }

  /** Dot product of `kernel` against the last `kernel.length` elements, with
    * `kernel(kernel.length - 1)` multiplying the newest element. If fewer
    * elements than the kernel are held, only the trailing (most recent)
    * portion of the kernel is used and the weight mass actually applied is
    * returned so the caller can renormalize. Returns (dot, weightMass).
    */
  def dotFromEnd(kernel: Array[Double]): (Double, Double) = {
    val w = math.min(kernel.length, filled)
    var dot  = 0.0
    var mass = 0.0
    var k = 0
    var i = writePos - 1
    if (i < 0) i += capacity
    // walk backwards from the newest element; kernel index mirrors.
    while (k < w) {
      val wk = kernel(kernel.length - 1 - k)
      dot  += wk * data(i)
      mass += wk
      i -= 1
      if (i < 0) i += capacity
      k += 1
    }
    (dot, mass)
  }

  /** Contents in time order (oldest first). O(n) — not for the hot loop. */
  def toArray: Array[Double] = {
    val out = new Array[Double](filled)
    var k = 0
    while (k < filled) {
      out(filled - 1 - k) = fromEnd(k)
      k += 1
    }
    out
  }

  /** Bulk-load in time order, keeping only the last `capacity` values. */
  def pushAll(xs: Array[Double]): Unit = {
    var i = 0
    while (i < xs.length) { push(xs(i)); i += 1 }
  }
}
