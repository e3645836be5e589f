package repro.baselines

import repro.core.Decomposition

/** MSTL (multi-seasonal STL, Hyndman et al.): iterated application of
  * classical STL, extracting one seasonal component at a time in ascending
  * period order while the other components stay subtracted. Reduces to plain
  * STL for a single period, so the experiment harness uses this class for the
  * "stl" column on multi-seasonal datasets too.
  */
final class MSTL extends Decomposer {
  override def name: String = "stl"

  private final val Rounds = 2 // passes over all periods
  private val stl = new BatchSTL

  override def decompose(xs: Array[Double], periods: Seq[Int]): Decomposition = {
    val ms = periods.sorted
    val n = xs.length
    val seasonals = ms.map(_ => new Array[Double](n)).toArray
    var trend = new Array[Double](n)
    var round = 0
    while (round < Rounds) {
      var pi = 0
      while (pi < ms.length) {
        // remove all *other* seasonal components, then re-extract this one.
        val partial = new Array[Double](n)
        var i = 0
        while (i < n) {
          var s = xs(i)
          var qi = 0
          while (qi < ms.length) { if (qi != pi) s -= seasonals(qi)(i); qi += 1 }
          partial(i) = s
          i += 1
        }
        val (t, s) = stl.innerLoop(partial, ms(pi))
        seasonals(pi) = s
        trend = t // trend from the final (largest-period) extraction wins
        pi += 1
      }
      round += 1
    }
    // report seasonals in the caller's period order
    val byPeriod = ms.zip(seasonals.toSeq).toMap
    Decomposition.additive(xs, trend, periods.map(byPeriod))
  }
}
