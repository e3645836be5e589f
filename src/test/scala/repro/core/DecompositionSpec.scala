package repro.core

import repro.SparkSpec

class DecompositionSpec extends SparkSpec {

  private val trend = Array(1.0, 2.0, 3.0)
  private val s1 = Array(0.5, -0.5, 0.0)
  private val s2 = Array(0.1, 0.2, -0.3)
  private val res = Array(0.01, -0.02, 0.03)

  test("n reports the series length") {
    assert(Decomposition(trend, Seq(s1), res).n == 3)
  }

  test("seasonalSum adds component-wise across periods") {
    val d = Decomposition(trend, Seq(s1, s2), res)
    assert(d.seasonalSum.toSeq == Seq(0.6, -0.3, -0.3))
  }

  test("fitted = trend + seasonal sum") {
    val d = Decomposition(trend, Seq(s1, s2), res)
    val f = d.fitted
    for (i <- 0 until 3)
      assert(math.abs(f(i) - (trend(i) + s1(i) + s2(i))) < 1e-12)
    // the same decomposition built through the additive factory
    val xs = Array(1.7, 1.31, 2.83)
    val a = Decomposition.additive(xs, trend, Seq(s1, s2))
    assert(a.fitted.toSeq == f.toSeq)
    for (i <- 0 until 3)
      assert(a.residual(i) == (xs(i) - trend(i)) - s1(i) - s2(i), s"residual at $i")
  }

  test("fromPoints reassembles a column-major decomposition") {
    val pts = Seq(
      DecompPoint(0, 10.0, 1.0, Array(0.5, 0.1), 0.01),
      DecompPoint(1, 11.0, 2.0, Array(-0.5, 0.2), -0.02),
      DecompPoint(2, 12.0, 3.0, Array(0.0, -0.3), 0.03))
    val d = Decomposition.fromPoints(pts, 2)
    assert(d.trend.toSeq == trend.toSeq)
    assert(d.seasonals(0).toSeq == s1.toSeq)
    assert(d.seasonals(1).toSeq == s2.toSeq)
    assert(d.residual.toSeq == res.toSeq)
  }

  test("DecompPoint.seasonalSum sums its seasonal components") {
    val p = DecompPoint(0, 1.0, 0.5, Array(0.2, 0.3, -0.1), 0.1)
    assert(math.abs(p.seasonalSum - 0.4) < 1e-12)
    val q = DecompPoint.additive(3, 1.3, 0.7, Array(0.2, 0.3, -0.1))
    assert(q.index == 3 && q.value == 1.3 && q.trend == 0.7)
    assert(q.residual == q.value - q.trend - q.seasonalSum)
  }

  test("fromPoints of an empty sequence yields an empty decomposition") {
    val d = Decomposition.fromPoints(Seq.empty, 2)
    assert(d.n == 0)
    assert(d.seasonals.size == 2)
  }

  test("round-trip: fromPoints of points built from a decomposition") {
    val d0 = Decomposition(trend, Seq(s1, s2), res)
    val pts = (0 until 3).map(i => DecompPoint(i, d0.fitted(i) + res(i), trend(i),
      Array(s1(i), s2(i)), res(i)))
    val d1 = Decomposition.fromPoints(pts, 2)
    assert(d1.trend.toSeq == d0.trend.toSeq)
    assert(d1.seasonals.map(_.toSeq) == d0.seasonals.map(_.toSeq))
  }
}
