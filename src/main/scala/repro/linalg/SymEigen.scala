package repro.linalg

import org.apache.commons.math3.linear.{Array2DRowRealMatrix, EigenDecomposition}

/** Eigendecomposition of a symmetric matrix — the O(L³) workhorse behind
  * SSA — by commons-math3's `EigenDecomposition` (tridiagonal reduction,
  * then implicit QL). Returns eigenvalues in descending order with the
  * matching eigenvectors (columns).
  */
object SymEigen {
  final case class Eigen(values: Array[Double], vectors: Mat)

  def decompose(s: Mat): Eigen = {
    require(s.rows == s.cols, "matrix must be square")
    val e = new EigenDecomposition(
      new Array2DRowRealMatrix(Array.tabulate(s.rows, s.cols)(s(_, _)), false))
    Eigen(e.getRealEigenvalues, new Mat(s.rows, s.cols, e.getV.getData.flatten))
  }
}
