package repro.core

import repro.SparkSpec
import scala.util.Random

class SeasonalityFilterSpec extends SparkSpec {

  test("step implements gamma*d + (1-gamma)*estimate") {
    assert(math.abs(SeasonalityFilter.step(10.0, 20.0) - (0.7 * 20 + 0.3 * 10)) < 1e-12)
    assert(SeasonalityFilter.step(5.0, 5.0) == 5.0)
  }

  test("default gamma is the paper's 0.7") {
    assert(SeasonalityFilter.Gamma == 0.7)
  }

  test("smoothCyclic on a perfectly periodic series converges to the pattern") {
    val m = 6
    val pattern = Array(1.0, -2.0, 3.0, 0.5, -1.5, -1.0)
    val xs = Array.tabulate(m * 10)(t => pattern(t % m))
    val (series, perPhase) = SeasonalityFilter.smoothCyclic(xs, m)
    // exponential smoothing of a constant subseries is that constant
    for (r <- 0 until m) assert(math.abs(perPhase(r) - pattern(r)) < 1e-9)
    for (t <- xs.indices) assert(math.abs(series(t) - pattern(t % m)) < 1e-9)
  }

  test("first occurrence of each phase seeds the estimate (c_k = d_k)") {
    val m = 4
    val xs = Array(10.0, 20.0, 30.0, 40.0)
    val (series, perPhase) = SeasonalityFilter.smoothCyclic(xs, m)
    assert(series.toSeq == xs.toSeq)
    assert(perPhase.toSeq == xs.toSeq)
  }

  test("recursive update matches closed-form for one phase") {
    val m = 2
    val xs = Array(1.0, 0.0, 2.0, 0.0, 4.0, 0.0) // phase 0 sees 1, 2, 4
    val g = 0.7
    val (_, perPhase) = SeasonalityFilter.smoothCyclic(xs, m)
    val expected = g * 4 + (1 - g) * (g * 2 + (1 - g) * 1.0)
    assert(math.abs(perPhase(0) - expected) < 1e-12)
    assert(perPhase(1) == 0.0)
  }

  test("rejects non-positive period") {
    intercept[IllegalArgumentException](SeasonalityFilter.smoothCyclic(Array(1.0), 0))
  }

  for (m <- Seq(2, 5, 12)) {
    test(s"m=$m: smoothed estimates stay within each phase's observed range") {
      val rng = new Random(m)
      val xs = Array.fill(m * 8)(rng.nextDouble() * 10 - 5)
      val (series, perPhase) = SeasonalityFilter.smoothCyclic(xs, m)
      for (r <- 0 until m) {
        val sub = xs.indices.filter(_ % m == r).map(xs)
        assert(perPhase(r) >= sub.min - 1e-12 && perPhase(r) <= sub.max + 1e-12)
      }
      assert(series.length == xs.length)
    }
  }
}
