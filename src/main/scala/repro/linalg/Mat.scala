package repro.linalg

/** Minimal dense row-major matrix. The baselines build their systems in it;
  * QR and the symmetric eigensolver hand it to commons-math3.
  */
final class Mat(val rows: Int, val cols: Int, val a: Array[Double]) {
  require(a.length == rows * cols, s"backing array ${a.length} != $rows x $cols")

  @inline def apply(i: Int, j: Int): Double = a(i * cols + j)
  @inline def update(i: Int, j: Int, v: Double): Unit = a(i * cols + j) = v

  /** y = this * x. */
  def mv(x: Array[Double]): Array[Double] = {
    require(x.length == cols, s"dim mismatch: $cols vs ${x.length}")
    val y = new Array[Double](rows)
    var i = 0
    while (i < rows) {
      var s = 0.0; var j = 0; val off = i * cols
      while (j < cols) { s += a(off + j) * x(j); j += 1 }
      y(i) = s
      i += 1
    }
    y
  }
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))
}

/** Shared small vector helpers. */
object Vec {
  def dot(x: Array[Double], y: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < x.length) { s += x(i) * y(i); i += 1 }
    s
  }
  def axpy(alpha: Double, x: Array[Double], y: Array[Double]): Unit = {
    var i = 0; while (i < x.length) { y(i) += alpha * x(i); i += 1 }
  }
  def sub(x: Array[Double], y: Array[Double]): Array[Double] =
    Array.tabulate(x.length)(i => x(i) - y(i))
}
