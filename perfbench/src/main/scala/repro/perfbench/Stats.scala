package repro.perfbench

/** Order statistics of measured samples. */
object Stats {

  /** Linearly interpolated quantile `q` in [0, 1] of a non-empty sample. */
  def quantile(xs: Array[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Array[Double]): Double = quantile(xs, 0.5)

  /** Median, or 0 for an empty sample (a layer the workload never reached). */
  def medianOr0(xs: Iterable[Double]): Double =
    if (xs.isEmpty) 0.0 else median(xs.toArray)

  /** Wall time of `body` in seconds, with its result. */
  def timed[T](body: => T): (Double, T) = {
    val t0 = System.nanoTime()
    val out = body
    ((System.nanoTime() - t0) / 1e9, out)
  }
}
