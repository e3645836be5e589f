package repro.linalg

import org.apache.commons.math3.linear.SingularMatrixException
import repro.SparkSpec
import scala.util.Random

/** Constructors, products and norms only the tests use. */
private object TestLinalg {
  def eye(n: Int): Mat = {
    val m = Mat.zeros(n, n)
    var i = 0; while (i < n) { m(i, i) = 1.0; i += 1 }
    m
  }

  /** y = mᵀ * x. */
  def tmv(m: Mat, x: Array[Double]): Array[Double] = {
    require(x.length == m.rows, s"dim mismatch: ${m.rows} vs ${x.length}")
    val y = new Array[Double](m.cols)
    for (i <- 0 until m.rows; j <- 0 until m.cols) y(j) += m(i, j) * x(i)
    y
  }

  /** Dense C = A * B. */
  def mm(x: Mat, y: Mat): Mat = {
    require(x.cols == y.rows, s"dim mismatch: ${x.cols} vs ${y.rows}")
    val c = Mat.zeros(x.rows, y.cols)
    for (i <- 0 until x.rows; k <- 0 until x.cols; j <- 0 until y.cols) c(i, j) += x(i, k) * y(k, j)
    c
  }

  def norm2(x: Array[Double]): Double = math.sqrt(Vec.dot(x, x))
}
import TestLinalg._

class MatSpec extends SparkSpec {

  test("apply/update round-trip") {
    val m = Mat.zeros(3, 4)
    m(1, 2) = 5.0
    assert(m(1, 2) == 5.0)
    assert(m(0, 0) == 0.0)
  }

  test("eye has ones on the diagonal only") {
    val m = eye(4)
    for (i <- 0 until 4; j <- 0 until 4)
      assert(m(i, j) == (if (i == j) 1.0 else 0.0))
  }

  test("mv computes matrix-vector product") {
    val m = new Mat(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    val y = m.mv(Array(1.0, 0.0, -1.0))
    assert(y.toSeq == Seq(1.0 - 3.0, 4.0 - 6.0))
  }

  test("tmv computes transpose matvec") {
    val m = new Mat(2, 3, Array(1, 2, 3, 4, 5, 6).map(_.toDouble))
    val y = tmv(m, Array(1.0, 2.0))
    assert(y.toSeq == Seq(1.0 + 8.0, 2.0 + 10.0, 3.0 + 12.0))
  }

  test("mm matches manual small product") {
    val a = new Mat(2, 2, Array(1.0, 2.0, 3.0, 4.0))
    val b = new Mat(2, 2, Array(0.0, 1.0, 1.0, 0.0))
    val c = mm(a, b)
    assert(c(0, 0) == 2.0 && c(0, 1) == 1.0 && c(1, 0) == 4.0 && c(1, 1) == 3.0)
  }

  test("dimension mismatches are rejected") {
    val m = Mat.zeros(2, 3)
    intercept[IllegalArgumentException](m.mv(new Array[Double](2)))
    intercept[IllegalArgumentException](tmv(m, new Array[Double](3)))
    intercept[IllegalArgumentException](mm(Mat.zeros(2, 3), Mat.zeros(2, 3)))
  }

  test("Vec helpers: dot, axpy, norm2, sub") {
    assert(Vec.dot(Array(1.0, 2.0), Array(3.0, 4.0)) == 11.0)
    val y = Array(1.0, 1.0)
    Vec.axpy(2.0, Array(1.0, -1.0), y)
    assert(y.toSeq == Seq(3.0, -1.0))
    assert(math.abs(norm2(Array(3.0, 4.0)) - 5.0) < 1e-12)
    assert(Vec.sub(Array(5.0, 1.0), Array(2.0, 1.0)).toSeq == Seq(3.0, 0.0))
  }
}

class QRSpec extends SparkSpec {

  test("solves an exact square system") {
    val a = new Mat(2, 2, Array(2.0, 1.0, 1.0, 3.0))
    val x = QR.solveLeastSquares(a, Array(5.0, 10.0))
    assert(math.abs(2 * x(0) + x(1) - 5.0) < 1e-9)
    assert(math.abs(x(0) + 3 * x(1) - 10.0) < 1e-9)
  }

  test("least squares of an overdetermined system minimizes residual (normal equations hold)") {
    val rng = new Random(1)
    val rows = 30; val cols = 5
    val a = new Mat(rows, cols, Array.fill(rows * cols)(rng.nextDouble() * 2 - 1))
    val b = Array.fill(rows)(rng.nextDouble())
    val x = QR.solveLeastSquares(a, b)
    // residual must be orthogonal to the column space: Aᵀ(Ax - b) = 0
    val r = Vec.sub(a.mv(x), b)
    val g = tmv(a, r)
    assert(norm2(g) < 1e-8, s"gradient norm ${norm2(g)}")
  }

  for (trial <- 1 to 5) {
    test(s"random trial $trial: recovers planted solution of consistent system") {
      val rng = new Random(100 + trial)
      val rows = 20 + trial * 5; val cols = 3 + trial
      val a = new Mat(rows, cols, Array.fill(rows * cols)(rng.nextGaussian()))
      val xTrue = Array.fill(cols)(rng.nextGaussian())
      val b = a.mv(xTrue)
      val x = QR.solveLeastSquares(a, b)
      for (j <- 0 until cols)
        assert(math.abs(x(j) - xTrue(j)) < 1e-7, s"coef $j: ${x(j)} vs ${xTrue(j)}")
    }
  }

  test("rejects underdetermined shapes") {
    intercept[IllegalArgumentException](
      QR.solveLeastSquares(Mat.zeros(2, 3), new Array[Double](2)))
    // Square but rank-deficient (two equal columns): no unique solution.
    intercept[SingularMatrixException](
      QR.solveLeastSquares(new Mat(2, 2, Array(3.0, 3.0, 4.0, 4.0)), Array(1.0, 2.0)))
  }
}

class CGSpec extends SparkSpec {

  test("solves a small SPD system to high precision") {
    // A = [[4,1],[1,3]]
    def applyA(v: Array[Double]) = Array(4 * v(0) + v(1), v(0) + 3 * v(1))
    val x = CG.solve(applyA, Array(1.0, 2.0))
    assert(math.abs(x(0) - 1.0 / 11) < 1e-7)
    assert(math.abs(x(1) - 7.0 / 11) < 1e-7)
  }

  test("solves identity instantly") {
    val b = Array(3.0, -4.0, 5.0)
    val x = CG.solve(v => v.clone(), b)
    assert(x.toSeq == b.toSeq)
  }

  for (n <- Seq(10, 50, 200)) {
    test(s"random SPD system n=$n converges") {
      val rng = new Random(n)
      // SPD via diagonally dominant tridiagonal
      val diag = Array.fill(n)(4.0 + rng.nextDouble())
      def applyA(v: Array[Double]): Array[Double] = {
        val y = new Array[Double](n)
        for (i <- 0 until n) {
          y(i) = diag(i) * v(i)
          if (i > 0) y(i) -= v(i - 1)
          if (i < n - 1) y(i) -= v(i + 1)
        }
        y
      }
      val xTrue = Array.fill(n)(rng.nextGaussian())
      val b = applyA(xTrue)
      val x = CG.solve(applyA, b, maxIter = 5 * n, tol = 1e-10)
      val err = (0 until n).map(i => math.abs(x(i) - xTrue(i))).max
      assert(err < 1e-5, s"max err $err")
    }
  }

  test("warm start from the exact solution returns it unchanged") {
    def applyA(v: Array[Double]) = Array(2 * v(0), 3 * v(1))
    val x = CG.solve(applyA, Array(4.0, 9.0), x0 = Some(Array(2.0, 3.0)))
    assert(math.abs(x(0) - 2.0) < 1e-12 && math.abs(x(1) - 3.0) < 1e-12)
  }
}

class JacobiEigenSpec extends SparkSpec {

  test("diagonal matrix: eigenvalues are the diagonal, sorted descending") {
    val m = Mat.zeros(3, 3)
    m(0, 0) = 1.0; m(1, 1) = 5.0; m(2, 2) = 3.0
    val e = SymEigen.decompose(m)
    assert(e.values.toSeq == Seq(5.0, 3.0, 1.0))
    // A repeated eigenvalue (as SSA's sinusoid pairs nearly are) still
    // yields an orthonormal eigenvector matrix.
    val r = Mat.zeros(4, 4)
    r(0, 0) = 2.0; r(1, 1) = 7.0; r(2, 2) = 2.0; r(3, 3) = 7.0
    val er = SymEigen.decompose(r)
    assert(er.values.toSeq == Seq(7.0, 7.0, 2.0, 2.0))
    def col(c: Int) = Array.tabulate(4)(i => er.vectors(i, c))
    for (c1 <- 0 until 4; c2 <- 0 until 4) {
      val d = Vec.dot(col(c1), col(c2))
      assert(math.abs(d - (if (c1 == c2) 1.0 else 0.0)) < 1e-12, s"v$c1 · v$c2 = $d")
    }
  }

  test("known 2x2 symmetric matrix") {
    val m = new Mat(2, 2, Array(2.0, 1.0, 1.0, 2.0))
    val e = SymEigen.decompose(m)
    assert(math.abs(e.values(0) - 3.0) < 1e-9)
    assert(math.abs(e.values(1) - 1.0) < 1e-9)
  }

  for (n <- Seq(5, 20, 60)) {
    test(s"random symmetric n=$n: A v = lambda v and orthonormal vectors") {
      val rng = new Random(n)
      val m = Mat.zeros(n, n)
      for (i <- 0 until n; j <- i until n) {
        val v = rng.nextGaussian()
        m(i, j) = v; m(j, i) = v
      }
      val e = SymEigen.decompose(m)
      // eigen equation
      for (c <- 0 until math.min(n, 5)) {
        val v = Array.tabulate(n)(i => e.vectors(i, c))
        val av = m.mv(v)
        for (i <- 0 until n)
          assert(math.abs(av(i) - e.values(c) * v(i)) < 1e-5,
            s"eigpair $c row $i: ${av(i)} vs ${e.values(c) * v(i)}")
      }
      // orthonormality of the first few vectors
      for (c1 <- 0 until math.min(n, 4); c2 <- c1 until math.min(n, 4)) {
        val v1 = Array.tabulate(n)(i => e.vectors(i, c1))
        val v2 = Array.tabulate(n)(i => e.vectors(i, c2))
        val d = Vec.dot(v1, v2)
        assert(math.abs(d - (if (c1 == c2) 1.0 else 0.0)) < 1e-7)
      }
      // trace preserved
      val traceIn = (0 until n).map(i => m(i, i)).sum
      assert(math.abs(e.values.sum - traceIn) < 1e-6)
    }
  }

  test("rejects non-square input") {
    intercept[IllegalArgumentException](SymEigen.decompose(Mat.zeros(2, 3)))
  }
}

class NelderMeadSpec extends SparkSpec {

  test("minimizes a 1-D quadratic") {
    val x = NelderMead.minimize(v => (v(0) - 3.0) * (v(0) - 3.0),
      Array(0.0), Array(-10.0), Array(10.0), maxEvals = 200)
    assert(math.abs(x(0) - 3.0) < 0.05, s"got ${x(0)}")
  }

  test("minimizes a 2-D quadratic bowl") {
    val x = NelderMead.minimize(
      v => (v(0) - 1.0) * (v(0) - 1.0) + 2 * (v(1) + 2.0) * (v(1) + 2.0),
      Array(0.0, 0.0), Array(-5.0, -5.0), Array(5.0, 5.0), maxEvals = 300)
    assert(math.abs(x(0) - 1.0) < 0.1)
    assert(math.abs(x(1) + 2.0) < 0.1)
  }

  test("respects bounds: optimum outside the box is clamped to the boundary") {
    val x = NelderMead.minimize(v => (v(0) - 10.0) * (v(0) - 10.0),
      Array(0.5), Array(0.0), Array(1.0), maxEvals = 150)
    assert(x(0) >= 0.0 && x(0) <= 1.0)
    assert(x(0) > 0.9, s"should push to the upper bound, got ${x(0)}")
  }

  test("improves on the starting value (Rosenbrock)") {
    def rosen(v: Array[Double]) =
      100 * math.pow(v(1) - v(0) * v(0), 2) + math.pow(1 - v(0), 2)
    val start = Array(-1.0, 1.0)
    val x = NelderMead.minimize(rosen, start, Array(-5.0, -5.0), Array(5.0, 5.0), maxEvals = 400)
    assert(rosen(x) < rosen(start))
  }
}
