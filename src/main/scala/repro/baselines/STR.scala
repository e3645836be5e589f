package repro.baselines

import repro.core.Decomposition
import repro.linalg.{CG, Mat, QR}

/** STR (Dokumentov & Hyndman): seasonal-trend decomposition as one joint
  * regularized least-squares problem. Unknowns are the trend value at every
  * time step plus one seasonal value per phase of each period; the objective
  *
  *   Σ_t (x_t - T_t - Σ_p S_p[t mod m_p])²
  *     + λ_T ||Δ²T||² + Σ_p λ_S ||Δ²_cyclic S_p||² + μ Σ_p (Σ_r S_p[r])²
  *
  * is solved either densely (Householder QR over the stacked design — the
  * "learning a two-dimensional structure is computationally expensive" cost
  * the paper cites) or by conjugate gradient on the normal equations when the
  * unknown count exceeds `denseLimit` (DESIGN.md substitution 5).
  *
  * Simplification vs. full STR: seasonality is static per phase (no seasonal
  * drift term) and robust ℓ1 mode is omitted.
  */
final class STR(denseLimit: Int = 300) extends Decomposer {
  override def name: String = "STR"

  private final val LambdaTrend = 2000.0    // λ_T
  private final val LambdaSeasonal = 2.0    // λ_S
  private final val MuSumZero = 1000.0      // μ

  override def decompose(xs: Array[Double], periods: Seq[Int]): Decomposition = {
    val n = xs.length
    val ms = periods.toArray
    val nUnknowns = n + ms.sum
    val theta =
      if (nUnknowns <= denseLimit) solveDense(xs, ms)
      else solveCG(xs, ms)
    unpack(xs, ms, theta)
  }

  private def unpack(xs: Array[Double], ms: Array[Int], theta: Array[Double]): Decomposition = {
    val n = xs.length
    val trend = java.util.Arrays.copyOfRange(theta, 0, n)
    var off = n
    val seas = ms.map { m =>
      val s = Array.tabulate(n)(t => theta(off + t % m))
      off += m
      s
    }
    Decomposition.additive(xs, trend, seas.toSeq)
  }

  /** Offset of seasonal block pi within the unknown vector. */
  private def seasOffset(n: Int, ms: Array[Int], pi: Int): Int = n + ms.take(pi).sum

  // ---- dense path --------------------------------------------------------
  private def solveDense(xs: Array[Double], ms: Array[Int]): Array[Double] = {
    val n = xs.length
    val cols = n + ms.sum
    val rows = n + math.max(0, n - 2) + ms.map(_ + 1).sum
    val a = Mat.zeros(rows, cols)
    val b = new Array[Double](rows)
    var row = 0
    // data rows
    var t = 0
    while (t < n) {
      a(row, t) = 1.0
      var pi = 0
      while (pi < ms.length) { a(row, seasOffset(n, ms, pi) + t % ms(pi)) = 1.0; pi += 1 }
      b(row) = xs(t)
      row += 1; t += 1
    }
    // trend smoothness rows
    val sqT = math.sqrt(LambdaTrend)
    t = 0
    while (t < n - 2) {
      a(row, t) = sqT; a(row, t + 1) = -2 * sqT; a(row, t + 2) = sqT
      row += 1; t += 1
    }
    // seasonal cyclic-smoothness and sum-zero rows
    val sqS = math.sqrt(LambdaSeasonal)
    val sqMu = math.sqrt(MuSumZero)
    var pi = 0
    while (pi < ms.length) {
      val m = ms(pi); val off = seasOffset(n, ms, pi)
      var r = 0
      while (r < m) {
        a(row, off + r) += sqS
        a(row, off + (r + 1) % m) += -2 * sqS
        a(row, off + (r + 2) % m) += sqS
        row += 1; r += 1
      }
      r = 0
      while (r < m) { a(row, off + r) = sqMu; r += 1 }
      row += 1
      pi += 1
    }
    QR.solveLeastSquares(a, b)
  }

  // ---- CG path (normal equations with structured matvec) -----------------
  private def solveCG(xs: Array[Double], ms: Array[Int]): Array[Double] = {
    val n = xs.length
    val cols = n + ms.sum

    def applyNormal(v: Array[Double]): Array[Double] = {
      val y = new Array[Double](cols)
      // data term: residual r_t = T_t + Σ_p S_p[φ]; Aᵀ adds r_t back to the
      // same coordinates.
      var t = 0
      while (t < n) {
        var r = v(t)
        var pi = 0
        while (pi < ms.length) { r += v(seasOffset(n, ms, pi) + t % ms(pi)); pi += 1 }
        y(t) += r
        pi = 0
        while (pi < ms.length) { y(seasOffset(n, ms, pi) + t % ms(pi)) += r; pi += 1 }
        t += 1
      }
      // trend Δ² term
      t = 0
      while (t < n - 2) {
        val d = v(t) - 2 * v(t + 1) + v(t + 2)
        y(t) += LambdaTrend * d
        y(t + 1) -= 2 * LambdaTrend * d
        y(t + 2) += LambdaTrend * d
        t += 1
      }
      // seasonal cyclic Δ² and sum-zero terms
      var pi = 0
      while (pi < ms.length) {
        val m = ms(pi); val off = seasOffset(n, ms, pi)
        var r = 0
        while (r < m) {
          val d = v(off + r) - 2 * v(off + (r + 1) % m) + v(off + (r + 2) % m)
          y(off + r) += LambdaSeasonal * d
          y(off + (r + 1) % m) -= 2 * LambdaSeasonal * d
          y(off + (r + 2) % m) += LambdaSeasonal * d
          r += 1
        }
        var s = 0.0
        r = 0
        while (r < m) { s += v(off + r); r += 1 }
        r = 0
        while (r < m) { y(off + r) += MuSumZero * s; r += 1 }
        pi += 1
      }
      y
    }

    // rhs = Aᵀ b: data rows only (penalty rhs are zero).
    val rhs = new Array[Double](cols)
    var t = 0
    while (t < n) {
      rhs(t) += xs(t)
      var pi = 0
      while (pi < ms.length) { rhs(seasOffset(n, ms, pi) + t % ms(pi)) += xs(t); pi += 1 }
      t += 1
    }
    CG.solve(applyNormal, rhs, maxIter = 400, tol = 1e-9)
  }
}
