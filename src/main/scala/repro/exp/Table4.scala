package repro.exp

import repro.baselines._
import repro.core.{Decomposition, OnlineSTL}
import repro.data.TimeSeriesGen
import repro.metrics.Metrics

/** Table 4 — accuracy against *known true components* on the Figure-4
  * synthetic dataset (n = 750, periods 25 & 50, 5 trend changepoints):
  * MASE of each estimated seasonal component and of the trend vs the truth,
  * plus raw trend smoothness, for OnlineSTL and the offline + online variant
  * of every batch algorithm.
  */
object Table4 {

  final case class Row(algorithm: String, maseS1: Double, maseS2: Double,
                       maseTrend: Double, trendSmoothness: Double)

  /** Paper Table 4 values (s=25, s=50, trend, smoothness) for diffing. */
  val paper: Map[String, (Double, Double, Double, Double)] = Map(
    "OnlineSTL"             -> (0.279, 0.236, 0.564, 0.018),
    "offline stl"           -> (0.080, 0.078, 0.168, 0.020),
    "SSA"                   -> (0.971, 0.899, 0.193, 0.018),
    "STR"                   -> (0.063, 0.115, 0.211, 0.019),
    "TBATS"                 -> (0.062, 0.127, 0.220, 0.483),
    "Fast RobustSTL"        -> (1.095, 0.366, 0.074, 0.114),
    "Online offline stl"    -> (0.083, 0.091, 0.210, 0.046),
    "Online SSA"            -> (0.992, 0.956, 0.348, 0.035),
    "Online STR"            -> (0.134, 0.176, 0.259, 0.375),
    "Online TBATS"          -> (0.08, 0.136, 0.225, 0.482),
    "Online Fast RobustSTL" -> (1.088, 0.369, 0.193, 0.075),
  )

  private def score(label: String, d: Decomposition,
                    g: TimeSeriesGen.Generated): Row = {
    val m = g.periods.max
    Row(label,
      Metrics.maseVsTruth(d.seasonals(0), g.trueSeasonals(0), g.x, m),
      Metrics.maseVsTruth(d.seasonals(1), g.trueSeasonals(1), g.x, m),
      Metrics.maseVsTruth(d.trend, g.trueTrend, g.x, m),
      Metrics.trendSmoothness(d.trend))
  }

  /** Table 4's names for the Table 3 algorithms it labels differently. */
  private val labels = Map("stl" -> "offline stl", "frobustSTL" -> "Fast RobustSTL")

  def run(g: TimeSeriesGen.Generated = TimeSeriesGen.synthetic()): Seq[Row] = {
    val batch = Table3.algos(multi = true).map { case (off, on) =>
      (labels.getOrElse(off.name, off.name), off, on)
    }
    val ostl = score("OnlineSTL", new OnlineSTL(g.periods).decomposeAll(g.x), g)
    val offline = batch.map { case (label, algo, _) =>
      score(label, algo.decompose(g.x, g.periods), g)
    }
    val online = batch.map { case (label, _, algo) =>
      score(s"Online $label", new OnlineCounterpart(algo).decomposeAll(g.x, g.periods), g)
    }
    ostl +: (offline ++ online)
  }

  def format(rows: Seq[Row]): String = {
    val header = f"${"Algorithm"}%-22s ${"MASE s=25"}%9s ${"MASE s=50"}%9s " +
      f"${"MASE trend"}%10s ${"smoothness"}%10s ${"paper (s25,s50,trend,smooth)"}%30s"
    val body = rows.map { r =>
      val p = paper.get(r.algorithm)
        .map(t => f"(${t._1}%.3f, ${t._2}%.3f, ${t._3}%.3f, ${t._4}%.3f)")
        .getOrElse("-")
      f"${r.algorithm}%-22s ${r.maseS1}%9.3f ${r.maseS2}%9.3f ${r.maseTrend}%10.3f " +
        f"${r.trendSmoothness}%10.3f $p%30s"
    }
    (header +: body).mkString("\n")
  }
}
