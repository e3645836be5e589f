package repro.core

import repro.SparkSpec
import scala.util.Random

class TrendFilterSpec extends SparkSpec {

  private def constantBuffer(v: Double, n: Int, cap: Int): CircularBuffer = {
    val b = new CircularBuffer(cap)
    (0 until n).foreach(_ => b.push(v))
    b
  }

  test("non-symmetric filter of a constant series is the constant") {
    val b = constantBuffer(5.5, 40, 40)
    for (lambda <- Seq(1, 5, 20, 40))
      assert(math.abs(TrendFilter.nonSymmetric(b, lambda) - 5.5) < 1e-12)
  }

  test("non-symmetric filter is a convex combination: bounded by min/max of window") {
    val rng = new Random(7)
    val b = new CircularBuffer(50)
    val vals = Array.fill(50)(rng.nextDouble() * 10)
    vals.foreach(b.push)
    for (lambda <- Seq(5, 17, 50)) {
      val window = vals.takeRight(lambda)
      val y = TrendFilter.nonSymmetric(b, lambda)
      assert(y >= window.min - 1e-12 && y <= window.max + 1e-12)
    }
  }

  test("non-symmetric filter weights recent points more (lags a rising ramp)") {
    val b = new CircularBuffer(20)
    (1 to 20).foreach(v => b.push(v.toDouble))
    val y = TrendFilter.nonSymmetric(b, 20)
    // weighted toward the newest values but strictly below the last value
    assert(y < 20.0 && y > 10.0)
  }

  test("non-symmetric filter equals manual dot product with the paper kernel") {
    val xs = Array(1.0, 4.0, 2.0, 8.0, 5.0)
    val b = new CircularBuffer(5)
    xs.foreach(b.push)
    val lambda = 4
    val k = TricubeKernel.weights(lambda)
    val manual = (0 until lambda).map(j => k(lambda - 1 - j) * xs(xs.length - 1 - j)).sum / k.sum
    assert(math.abs(TrendFilter.nonSymmetric(b, lambda) - manual) < 1e-12)
  }

  test("nonSymmetricAt on arrays matches ring-buffer implementation") {
    // plain-array reference: trailing kernel renormalized over xs(0..end)
    def onArray(xs: Array[Double], end: Int, lambda: Int): Double = {
      val k = TricubeKernel.weights(lambda)
      val js = 0 until math.min(lambda, end + 1)
      js.map(j => k(lambda - 1 - j) * xs(end - j)).sum / js.map(j => k(lambda - 1 - j)).sum
    }
    val rng = new Random(3)
    val xs = Array.fill(60)(rng.nextDouble() * 20 - 10)
    for (lambda <- Seq(3, 10, 31, 60)) {
      val b = new CircularBuffer(lambda)
      for (end <- xs.indices) {
        b.push(xs(end))
        val (a, c) = (onArray(xs, end, lambda), TrendFilter.nonSymmetric(b, lambda))
        assert(math.abs(a - c) < 1e-12, s"lambda=$lambda end=$end: $a vs $c")
      }
    }
  }

  test("warm-up: filter on partially filled buffer uses trailing kernel and stays bounded") {
    val b = new CircularBuffer(100)
    b.push(2.0); b.push(4.0)
    val y = TrendFilter.nonSymmetric(b, 100)
    assert(y >= 2.0 && y <= 4.0)
  }

  test("symmetric smoothing preserves a constant series exactly") {
    val xs = Array.fill(50)(3.3)
    val out = TrendFilter.symmetric(xs, 14)
    assert(out.forall(v => math.abs(v - 3.3) < 1e-12))
  }

  test("symmetric smoothing preserves a linear ramp in the interior") {
    val xs = Array.tabulate(100)(_.toDouble)
    val out = TrendFilter.symmetric(xs, 10)
    // symmetric weights cancel the slope except near the edges
    for (i <- 10 until 90)
      assert(math.abs(out(i) - xs(i)) < 1e-9, s"at $i: ${out(i)}")
  }

  test("symmetric smoothing attenuates high-frequency oscillation") {
    val noisy = Array.tabulate(200)(i => if (i % 2 == 0) 1.0 else -1.0)
    val out = TrendFilter.symmetric(noisy, 12)
    val maxAbs = out.slice(10, 190).map(math.abs).max
    assert(maxAbs < 0.5, s"oscillation not attenuated: $maxAbs")
  }

  test("symmetric smoothing output length equals input length") {
    for (n <- Seq(1, 2, 9, 33)) {
      val xs = Array.tabulate(n)(_.toDouble)
      assert(TrendFilter.symmetric(xs, 6).length == n)
    }
  }

  test("symmetric smoothing rejects non-positive window") {
    intercept[IllegalArgumentException](TrendFilter.symmetric(Array(1.0, 2.0), 0))
  }

  for (window <- Seq(2, 6, 20)) {
    test(s"symmetric window=$window output bounded by input range") {
      val rng = new Random(window)
      val xs = Array.fill(80)(rng.nextDouble() * 100)
      val out = TrendFilter.symmetric(xs, window)
      assert(out.forall(v => v >= xs.min - 1e-9 && v <= xs.max + 1e-9))
    }
  }
}
