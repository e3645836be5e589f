package repro.baselines

import repro.core.Decomposition
import repro.linalg.{Mat, SymEigen}

/** Singular Spectrum Analysis (Golyandina & Osipov) — the paper's SVD-based
  * baseline. Embeds the series in an L-lagged trajectory matrix, eigen-
  * decomposes the L×L lag-covariance with [[repro.linalg.SymEigen]] (the
  * O(L³) step that dominates and puts SSA in the paper's O(1)/s throughput
  * class), reconstructs the top elementary components by diagonal
  * averaging, and groups them into trend / seasonal-p / residual by
  * eigenvector frequency.
  *
  * @param maxL      cap on the embedding length (DESIGN.md substitution 5 —
  *                  documented cap so seasonality-1440 runs terminate)
  * @param maxComps  number of leading components reconstructed
  */
final class SSA(maxL: Int = 360, maxComps: Int = 24) extends Decomposer {
  override def name: String = "SSA"

  override def decompose(xs: Array[Double], periods: Seq[Int]): Decomposition = {
    val n = xs.length
    val mMax = periods.max
    val l = math.max(2, math.min(math.min(n / 2, 2 * mMax + 1), maxL))
    val k = n - l + 1
    require(k >= 1, s"series of $n too short for embedding $l")

    // Lag-covariance S = X Xᵀ over the trajectory matrix, O(L²K).
    val s = Mat.zeros(l, l)
    var i = 0
    while (i < l) {
      var j = i
      while (j < l) {
        var t = 0; var acc = 0.0
        while (t < k) { acc += xs(t + i) * xs(t + j); t += 1 }
        s(i, j) = acc; s(j, i) = acc
        j += 1
      }
      i += 1
    }
    val eig = SymEigen.decompose(s)

    val r = math.min(maxComps, l)
    val trend = new Array[Double](n)
    val seas = periods.map(_ => new Array[Double](n)).toArray
    var c = 0
    while (c < r && eig.values(c) > 1e-12 * math.max(eig.values(0), 1e-300)) {
      val u = Array.tabulate(l)(row => eig.vectors(row, c))
      val rc = reconstruct(xs, u, l, k)
      groupOf(u, periods) match {
        case Some(-1) => var t = 0; while (t < n) { trend(t) += rc(t); t += 1 }
        case Some(pi) => var t = 0; while (t < n) { seas(pi)(t) += rc(t); t += 1 }
        case None     => () // leave in residual
      }
      c += 1
    }
    Decomposition.additive(xs, trend, seas.toSeq)
  }

  /** Elementary series of eigenvector u via projection + diagonal averaging. */
  private def reconstruct(xs: Array[Double], u: Array[Double], l: Int, k: Int): Array[Double] = {
    val n = xs.length
    // principal component pc[t] = Σ_j u(j) x(t+j)
    val pc = new Array[Double](k)
    var t = 0
    while (t < k) {
      var j = 0; var acc = 0.0
      while (j < l) { acc += u(j) * xs(t + j); j += 1 }
      pc(t) = acc
      t += 1
    }
    // diagonal averaging of the rank-1 matrix u pcᵀ
    val out = new Array[Double](n)
    val cnt = new Array[Int](n)
    var j = 0
    while (j < l) {
      val uj = u(j)
      var tt = 0
      while (tt < k) {
        out(j + tt) += uj * pc(tt)
        cnt(j + tt) += 1
        tt += 1
      }
      j += 1
    }
    var idx = 0
    while (idx < n) { out(idx) /= math.max(cnt(idx), 1); idx += 1 }
    out
  }

  /** Classify an eigenvector: Some(-1) = trend, Some(i) = seasonal periods(i),
    * None = residual. Frequency is estimated from sign changes of the
    * (mean-removed) eigenvector.
    */
  private[baselines] def groupOf(u: Array[Double], periods: Seq[Int]): Option[Int] = {
    val l = u.length
    val mean = u.sum / l
    var changes = 0
    var prev = 0.0
    var i = 0
    while (i < l) {
      val v = u(i) - mean
      if (v != 0.0) {
        if (prev != 0.0 && math.signum(v) != math.signum(prev)) changes += 1
        prev = v
      }
      i += 1
    }
    val freq = changes.toDouble / (2.0 * math.max(l - 1, 1)) // cycles per step
    val mMax = periods.max
    if (freq < 0.5 / mMax) return Some(-1) // slower than any seasonal fundamental
    // match against harmonics j/m_p, j = 1..4; fundamental tried first.
    var best: Option[Int] = None
    var bestErr = 0.2 // 20% relative tolerance
    for (j <- 1 to 4; pi <- periods.indices) {
      val f = j.toDouble / periods(pi)
      if (f <= 0.5) {
        val err = math.abs(freq - f) / f
        if (err < bestErr) { bestErr = err; best = Some(pi) }
      }
    }
    best
  }
}
