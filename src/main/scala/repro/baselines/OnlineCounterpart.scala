package repro.baselines

import repro.core.Decomposition

/** Generic online counterpart of a batch algorithm (paper §7.1): for each
  * arriving point, re-run the batch decomposition on a sliding window of the
  * last `4 · max(periods)` points and emit the decomposition of the newest
  * point. Deliberately expensive — "the natural extension of any batch
  * algorithm to online".
  */
final class OnlineCounterpart(batch: Decomposer) {
  def name: String = s"Online ${batch.name}"

  private final val WindowFactor = 4 // window = WindowFactor · max(periods)

  /** Minimum points before the first emission (2 periods of history). */
  def minPoints(periods: Seq[Int]): Int = 2 * periods.max

  /** Run over a whole series; for the warm-up prefix (before `minPoints`)
    * the first full-window batch decomposition supplies the values, mirroring
    * how OnlineSTL back-fills its init window.
    */
  def decomposeAll(xs: Array[Double], periods: Seq[Int]): Decomposition = {
    val n = xs.length
    val m = periods.max
    val window = WindowFactor * m
    val warm = math.min(math.max(minPoints(periods), window), n)
    val (trend, res) = (new Array[Double](n), new Array[Double](n))
    val seas = Seq.fill(periods.length)(new Array[Double](n))
    // point t's components are point i's of `d`
    def put(t: Int, d: Decomposition, i: Int): Unit = {
      trend(t) = d.trend(i); res(t) = d.residual(i)
      for ((s, ds) <- seas.zip(d.seasonals)) s(t) = ds(i)
    }
    // back-fill the warm-up prefix from one batch run on it
    val head = batch.decompose(xs.take(warm), periods)
    for (i <- 0 until warm) put(i, head, i)
    var t = warm
    while (t < n) {
      val lo = math.max(0, t + 1 - window)
      val win = java.util.Arrays.copyOfRange(xs, lo, t + 1)
      put(t, batch.decompose(win, periods), win.length - 1)
      t += 1
    }
    Decomposition(trend, seas, res)
  }

  /** Measure per-point latency: run `steps` single-point updates at the end
    * of `xs` and return seconds per point (throughput harness for Table 1).
    */
  def secondsPerPoint(xs: Array[Double], periods: Seq[Int], steps: Int): Double = {
    val n = xs.length
    val window = WindowFactor * periods.max
    require(n > window + steps, s"need > ${window + steps} points, got $n")
    val t0 = System.nanoTime()
    var t = n - steps
    while (t < n) {
      val lo = math.max(0, t + 1 - window)
      val win = java.util.Arrays.copyOfRange(xs, lo, t + 1)
      batch.decompose(win, periods)
      t += 1
    }
    (System.nanoTime() - t0) / 1e9 / steps
  }
}
