package repro.data

import repro.SparkSpec

class TimeSeriesGenSpec extends SparkSpec {

  test("synthetic: x equals trend + seasonals + noise with matching lengths") {
    val g = TimeSeriesGen.synthetic()
    assert(g.n == 750)
    assert(g.periods == Seq(25, 50))
    assert(g.trueTrend.length == g.n)
    assert(g.trueSeasonals.size == 2)
    g.trueSeasonals.foreach(s => assert(s.length == g.n))
  }

  test("synthetic is deterministic in the seed") {
    val a = TimeSeriesGen.synthetic(seed = 7)
    val b = TimeSeriesGen.synthetic(seed = 7)
    val c = TimeSeriesGen.synthetic(seed = 8)
    assert(a.x.toSeq == b.x.toSeq)
    assert(a.x.toSeq != c.x.toSeq)
  }

  test("synthetic seasonal components are periodic with their stated period") {
    val g = TimeSeriesGen.synthetic()
    for ((s, m) <- g.trueSeasonals.zip(g.periods); t <- 0 until g.n - m)
      assert(s(t) == s(t + m), s"period $m broken at $t")
  }

  test("synthetic seasonal components are mean-centered per cycle") {
    val g = TimeSeriesGen.synthetic()
    for ((s, m) <- g.trueSeasonals.zip(g.periods)) {
      val cycleMean = s.take(m).sum / m
      assert(math.abs(cycleMean) < 1e-9, s"period $m mean $cycleMean")
    }
  }

  test("synthetic noise level: x - trend - seasonals has roughly the target std") {
    val g = TimeSeriesGen.synthetic(noiseStd = 0.3)
    val res = Array.tabulate(g.n)(t => g.x(t) - g.trueTrend(t) - g.trueSeasonals.map(_(t)).sum)
    val mean = res.sum / res.length
    val std = math.sqrt(res.map(v => (v - mean) * (v - mean)).sum / res.length)
    assert(std > 0.2 && std < 0.4, s"noise std $std")
  }

  test("synthetic trend is piecewise linear: second difference is 0 almost everywhere") {
    val g = TimeSeriesGen.synthetic(nChangepoints = 5)
    val d2 = (0 until g.n - 2).count(t =>
      math.abs(g.trueTrend(t) - 2 * g.trueTrend(t + 1) + g.trueTrend(t + 2)) > 1e-9)
    assert(d2 <= 5, s"more nonzero second differences ($d2) than changepoints")
  }

  private val expected = Seq(
    ("Bike sharing", 730, Seq(7)),
    ("Daily female births", 364, Seq(7)),
    ("Elecequip", 190, Seq(12)),
    ("Min temperature", 500, Seq(7, 28)),
    ("Internet traffic", 1231, Seq(24, 168)),
  )

  test("realDatasets match the paper's sizes and seasonality periods") {
    val ds = TimeSeriesGen.realDatasets()
    assert(ds.map(_._1) == expected.map(_._1))
    for (((name, g), (_, n, ms)) <- ds.zip(expected)) {
      assert(g.n == n, s"$name length ${g.n} != $n")
      assert(g.periods == ms, s"$name periods ${g.periods} != $ms")
      assert(g.x.length >= 4 * ms.max, s"$name too short for OnlineSTL init")
    }
  }

  for ((name, _, _) <- expected) {
    test(s"$name: series is finite and non-constant") {
      val g = TimeSeriesGen.realDatasets().find(_._1 == name).get._2
      assert(g.x.forall(v => !v.isNaN && !v.isInfinite))
      assert(g.x.max > g.x.min)
    }
  }

  test("realDatasets deterministic in seed") {
    val a = TimeSeriesGen.realDatasets(seed = 3).map(_._2.x.toSeq)
    val b = TimeSeriesGen.realDatasets(seed = 3).map(_._2.x.toSeq)
    assert(a == b)
    // each stand-in's values, pinned exactly at the default seed
    val sums = Seq(
      "Bike sharing"        -> 3931687.41372764,
      "Daily female births" -> 15304.55189036463,
      "Elecequip"           -> 18768.18586388364,
      "Min temperature"     -> 5992.813087803917,
      "Internet traffic"    -> 4150398.478192502)
    assert(TimeSeriesGen.realDatasets().map { case (name, g) => name -> g.x.sum } == sums)
  }

  test("metricPoint is deterministic and seasonal-ish") {
    val p = 24
    assert(TimeSeriesGen.metricPoint(3, 100, p) == TimeSeriesGen.metricPoint(3, 100, p))
    assert(TimeSeriesGen.metricPoint(3, 100, p) != TimeSeriesGen.metricPoint(4, 100, p))
    // seasonal structure: correlation between t and t+p values over a window
    val xs = Array.tabulate(20 * p)(t => TimeSeriesGen.metricPoint(1, t.toLong, p))
    val diffsSeasonal = (0 until 19 * p).map(t => math.abs(xs(t + p) - xs(t)))
    val diffsHalf = (0 until 19 * p).map(t => math.abs(xs(t + p / 2) - xs(t)))
    assert(diffsSeasonal.sum < diffsHalf.sum, "no seasonal structure detected")
  }
}
