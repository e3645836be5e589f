package repro.core

import repro.SparkSpec

class TricubeKernelSpec extends SparkSpec {

  test("W(0) = 1 — the newest point gets full weight") {
    assert(TricubeKernel.W(0.0) == 1.0)
  }

  test("W is 0 at and beyond u = 1") {
    assert(TricubeKernel.W(1.0) == 0.0)
    assert(TricubeKernel.W(2.5) == 0.0)
  }

  test("W is 0 for negative u (outside the defined domain)") {
    assert(TricubeKernel.W(-0.5) == 0.0)
  }

  test("W matches the closed form (1-u^3)^3 at sample points") {
    for (u <- Seq(0.1, 0.25, 0.5, 0.75, 0.9)) {
      val expected = math.pow(1 - math.pow(u, 3), 3)
      assert(math.abs(TricubeKernel.W(u) - expected) < 1e-12)
    }
  }

  test("W is monotonically decreasing on [0,1)") {
    val vals = (0 until 100).map(i => TricubeKernel.W(i / 100.0))
    assert(vals.sliding(2).forall { case Seq(a, b) => a >= b })
  }

  for (lambda <- Seq(1, 2, 5, 7, 24, 100, 1440)) {
    test(s"kernel lambda=$lambda: correct length, newest weight 1, all positive") {
      val k = TricubeKernel.weights(lambda)
      assert(k.length == lambda)
      assert(k.last == 1.0) // W(0)
      assert(k.forall(_ > 0.0)) // u = (lambda-k)/lambda < 1 for all k >= 1
      // ascending: newer points weigh more
      assert(k.sliding(2).forall(p => p.length < 2 || p(0) <= p(1)))
    }
  }

  test("kernel values follow the paper formula w_k = W((lambda-k)/lambda)") {
    val lambda = 10
    val k = TricubeKernel.weights(lambda)
    for (i <- 1 to lambda)
      assert(math.abs(k(i - 1) - TricubeKernel.W((lambda - i).toDouble / lambda)) < 1e-12)
  }

  test("kernels are cached: repeated calls return the same array instance") {
    assert(TricubeKernel.weights(17) eq TricubeKernel.weights(17))
  }

  test("rejects non-positive window") {
    intercept[IllegalArgumentException](TricubeKernel.weights(0))
  }
}
