package repro.core

/** Additive decomposition of a single point: X = trend + Σ seasonals + residual. */
final case class DecompPoint(
    index: Long,
    value: Double,
    trend: Double,
    seasonals: Array[Double],
    residual: Double) {
  /** Seasonal total Σ_p S_p. */
  def seasonalSum: Double = DecompPoint.sum(seasonals)
}

object DecompPoint {
  /** The point whose residual is `value − trend − Σ seasonals`. */
  def additive(index: Long, value: Double, trend: Double, seasonals: Array[Double]): DecompPoint =
    DecompPoint(index, value, trend, seasonals, value - trend - sum(seasonals))

  private def sum(xs: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < xs.length) { s += xs(i); i += 1 }
    s
  }
}

/** Additive decomposition of a whole series (column-major). */
final case class Decomposition(
    trend: Array[Double],
    seasonals: Seq[Array[Double]],
    residual: Array[Double]) {
  def n: Int = trend.length
  /** Σ_p S_p per point. */
  def seasonalSum: Array[Double] = {
    val out = new Array[Double](n)
    for (s <- seasonals; i <- 0 until n) out(i) += s(i)
    out
  }
  /** trend + Σ seasonals — the fitted series. */
  def fitted: Array[Double] = {
    val ss = seasonalSum
    Array.tabulate(n)(i => trend(i) + ss(i))
  }
}

object Decomposition {
  /** The decomposition of `xs` whose residual is `xs − trend`, minus each
    * seasonal in the order given.
    */
  def additive(xs: Array[Double], trend: Array[Double], seasonals: Seq[Array[Double]]): Decomposition = {
    val n = xs.length
    val res = new Array[Double](n)
    var i = 0
    while (i < n) { res(i) = xs(i) - trend(i); i += 1 }
    for (s <- seasonals) {
      i = 0
      while (i < n) { res(i) -= s(i); i += 1 }
    }
    Decomposition(trend, seasonals, res)
  }

  /** Assemble from points produced one at a time (e.g. by an online run). */
  def fromPoints(pts: Seq[DecompPoint], k: Int): Decomposition = {
    val n = pts.length
    val trend = new Array[Double](n)
    val seas  = Seq.fill(k)(new Array[Double](n))
    val res   = new Array[Double](n)
    var i = 0
    for (p <- pts) {
      trend(i) = p.trend
      res(i) = p.residual
      var j = 0
      while (j < k) { seas(j)(i) = p.seasonals(j); j += 1 }
      i += 1
    }
    Decomposition(trend, seas, res)
  }
}
