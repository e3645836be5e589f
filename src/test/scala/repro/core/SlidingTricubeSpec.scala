package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The sliding tri-cube trackers against the paper's ring dots, which stay
  * the oracle: every value within 1e-9 × the largest |x| of its window.
  */
class SlidingTricubeSpec extends AnyFunSuite {

  private val Tol = 1e-9

  /** A noisy seasonal random walk around `offset`. */
  private def series(n: Int, offset: Double, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    var walk = 0.0
    Array.tabulate(n) { t =>
      walk += rng.nextGaussian() * 0.1
      offset + walk + 5.0 * math.sin(2 * math.Pi * t / 37) + rng.nextGaussian()
    }
  }

  private def windowMaxAbs(ring: CircularBuffer, lambda: Int): Double = {
    var mx = 0.0
    var i = 0
    while (i < math.min(lambda, ring.size)) { mx = math.max(mx, math.abs(ring.fromEnd(i))); i += 1 }
    mx
  }

  /** Feed `xs` through a tracker of window λ on a ring of `capacity`,
    * recomputing every λ steps as its callers do, and compare it with
    * [[TrendFilter.nonSymmetric]] after every step `check` picks. Returns
    * the largest error seen, relative to the window's largest |x|.
    */
  private def worstError(xs: Array[Double], lambda: Int, capacity: Int)(check: Int => Boolean): Double = {
    val ring = new CircularBuffer(capacity)
    val s = new Array[Double](SlidingTricube.Slots)
    var worst = 0.0
    var t = 0
    while (t < xs.length) {
      SlidingTricube.advance(s, 0, ring, lambda, xs(t), refresh = (t + 1) % lambda == 0)
      ring.push(xs(t))
      if (check(t)) {
        val err = math.abs(SlidingTricube.value(s, 0, lambda) - TrendFilter.nonSymmetric(ring, lambda))
        val scale = windowMaxAbs(ring, lambda)
        val rel = if (scale > 0) err / scale else err
        assert(rel <= Tol, s"λ=$lambda capacity=$capacity step $t: relative error $rel")
        worst = math.max(worst, rel)
      }
      t += 1
    }
    worst
  }

  for (offset <- Seq(0.0, 1e9)) {
    test(s"λ=40 matches the ring dot at every one of 10^7 points, offset $offset") {
      val rng = new Random(1)
      val ring = new CircularBuffer(40)
      val s = new Array[Double](SlidingTricube.Slots)
      var walk = 0.0
      var t = 0
      while (t < 10000000) {
        walk += rng.nextGaussian() * 0.1
        val x = offset + walk + rng.nextGaussian()
        SlidingTricube.advance(s, 0, ring, 40, x, refresh = (t + 1) % 40 == 0)
        ring.push(x)
        val err = math.abs(SlidingTricube.value(s, 0, 40) - TrendFilter.nonSymmetric(ring, 40))
        if (err > Tol * windowMaxAbs(ring, 40)) fail(s"step $t: error $err at scale ${windowMaxAbs(ring, 40)}")
        t += 1
      }
    }
  }

  for (lambda <- Seq(400, 4000, 40000); offset <- Seq(0.0, 1e9)) {
    test(s"λ=$lambda matches the ring dot across 20 refreshes, offset $offset") {
      val xs = series(20 * lambda + lambda / 2, offset, lambda.toLong)
      val rng = new Random(lambda)
      // Both sides of every recompute (the step before one carries the most
      // drift), the warm-up steps, and a random sample in between.
      val worst = worstError(xs, lambda, lambda) { t =>
        val r = (t + 1) % lambda
        r <= 1 || r >= lambda - 2 || t < 3 || rng.nextInt(lambda) < 10
      }
      info(f"worst relative error $worst%.2e")
    }
  }

  test("warm-up: matches the renormalized trailing kernel while the window fills") {
    for (lambda <- Seq(1, 2, 7, 500); capacity <- Seq(lambda, 2 * lambda + 3))
      worstError(series(3 * lambda + 5, 1e9, 3), lambda, capacity)(_ => true)
  }

  test("on a constant series the trend is the constant, full or filling") {
    val ring = new CircularBuffer(50)
    val s = new Array[Double](SlidingTricube.Slots)
    for (t <- 0 until 500) {
      SlidingTricube.advance(s, 0, ring, 50, 7.25, refresh = (t + 1) % 50 == 0)
      ring.push(7.25)
      assert(math.abs(SlidingTricube.value(s, 0, 50) - 7.25) < 1e-12, s"step $t")
    }
  }

  test("reset reproduces the window of a filled ring") {
    val xs = series(300, 1e9, 4)
    for (lambda <- Seq(10, 100, 300)) {
      val ring = new CircularBuffer(300)
      ring.pushAll(xs.take(lambda / 2))
      val s = new Array[Double](SlidingTricube.Slots)
      SlidingTricube.reset(s, 0, ring, lambda)
      assert(math.abs(SlidingTricube.value(s, 0, lambda) - TrendFilter.nonSymmetric(ring, lambda)) <= Tol * 1e9)
      ring.pushAll(xs)
      SlidingTricube.reset(s, 0, ring, lambda)
      assert(math.abs(SlidingTricube.value(s, 0, lambda) - TrendFilter.nonSymmetric(ring, lambda)) <= Tol * 1e9)
    }
  }

  /** Fast symmetric smoothing against [[TrendFilter.symmetric]] at every
    * point, edges included, relative to the largest |x| of the series.
    */
  private def assertSymmetricMatches(xs: Array[Double], window: Int): Unit = {
    val fast = SlidingTricube.symmetric(xs, window)
    val slow = TrendFilter.symmetric(xs, window)
    val scale = math.max(xs.map(math.abs).max, Double.MinPositiveValue)
    assert(fast.length == slow.length)
    for (i <- xs.indices)
      assert(math.abs(fast(i) - slow(i)) <= Tol * scale,
        s"n=${xs.length} window=$window at $i: ${fast(i)} vs ${slow(i)}")
  }

  test("symmetric smoothing matches the O(n·h) oracle, edges and n < window included") {
    for (offset <- Seq(0.0, 1e9); window <- Seq(1, 2, 3, 14, 15, 2000, 3000); n <- Seq(1, 2, 5, 40, 4000))
      assertSymmetricMatches(series(n, offset, window + n), window)
  }

  test("property: tracker and symmetric smoothing match their oracles for any λ, length and offset") {
    val case_ = for {
      lambda <- Gen.choose(1, 300)
      extra <- Gen.choose(0, 20)
      n <- Gen.choose(1, 2000)
      offset <- Gen.oneOf(Gen.const(0.0), Gen.const(1e9), Gen.const(-1e9), Gen.choose(-1e9, 1e9))
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (lambda, extra, n, offset, seed)
    val prop = Prop.forAll(case_) { case (lambda, extra, n, offset, seed) =>
      val xs = series(n, offset, seed)
      worstError(xs, lambda, lambda + extra)(_ => true)
      assertSymmetricMatches(xs, lambda)
      true
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(200).withInitialSeed(6L), prop)
    assert(result.passed, result.status.toString)
  }
}
