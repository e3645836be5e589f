package repro.linalg

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, ArrayRealVector, QRDecomposition}

/** Householder QR least squares: argmin_x ||A x - b||₂, A (rows >= cols),
  * solved by commons-math3's `QRDecomposition`. Dense O(rows·cols²) — this
  * deliberate cost is part of reproducing why STR is slow (DESIGN.md
  * substitution 5); the CG path handles large systems.
  *
  * A must have full column rank: if R has an exactly zero diagonal entry
  * the solve throws `SingularMatrixException`. STR's smoothness and sum-zero
  * rows give its design full column rank.
  */
object QR {
  def solveLeastSquares(a: Mat, b: Array[Double]): Array[Double] = {
    require(a.rows >= a.cols, s"need rows >= cols, got ${a.rows} x ${a.cols}")
    require(b.length == a.rows, "rhs length mismatch")
    val m = new Array2DRowRealMatrix(Array.tabulate(a.rows, a.cols)(a(_, _)), false)
    new QRDecomposition(m).getSolver.solve(new ArrayRealVector(b, false)).toArray
  }
}
