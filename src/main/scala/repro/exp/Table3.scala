package repro.exp

import repro.baselines._
import repro.core.{Decomposition, OnlineSTL}
import repro.data.TimeSeriesGen
import repro.metrics.Metrics

/** Table 3 — decomposition quality on the five real datasets (offline and
  * online variant of every batch algorithm vs OnlineSTL): MASE of the
  * residual and log-scale trend smoothness. Datasets are the synthetic
  * stand-ins of DESIGN.md substitution 3 (same n and periods as the paper).
  */
object Table3 {

  final case class Cell(mase: Double, logSmooth: Double)
  final case class Row(dataset: String, n: Int, periods: Seq[Int], algorithm: String,
                       offline: Option[Cell], online: Option[Cell])

  /** Paper Table 3 MASE x/y (offline/online) for EXPERIMENTS.md diffing. */
  val paperMase: Map[(String, String), (Double, Double)] = Map(
    ("Bike sharing", "stl") -> (0.513, 0.475), ("Bike sharing", "SSA") -> (0.303, 0.286),
    ("Bike sharing", "STR") -> (0.654, 0.611), ("Bike sharing", "TBATS") -> (0.672, 0.671),
    ("Bike sharing", "RobustSTL") -> (0.596, 0.674),
    ("Daily female births", "stl") -> (0.566, 0.504), ("Daily female births", "SSA") -> (0.405, 0.350),
    ("Daily female births", "STR") -> (0.630, 0.516), ("Daily female births", "TBATS") -> (0.744, 0.725),
    ("Daily female births", "RobustSTL") -> (0.322, 0.334),
    ("Elecequip", "stl") -> (0.243, 0.271), ("Elecequip", "SSA") -> (0.419, 0.455),
    ("Elecequip", "STR") -> (0.209, 0.252), ("Elecequip", "TBATS") -> (0.304, 0.313),
    ("Elecequip", "RobustSTL") -> (0.383, 0.419),
    ("Min temperature", "stl") -> (0.561, 0.574), ("Min temperature", "SSA") -> (0.359, 0.405),
    ("Min temperature", "STR") -> (0.608, 0.574), ("Min temperature", "TBATS") -> (0.629, 0.625),
    ("Min temperature", "frobustSTL") -> (0.149, 0.158),
    ("Internet traffic", "stl") -> (0.857, 1.074), ("Internet traffic", "SSA") -> (0.765, 0.622),
    ("Internet traffic", "STR") -> (0.313, 0.236), ("Internet traffic", "TBATS") -> (0.369, 0.405),
    ("Internet traffic", "frobustSTL") -> (0.845, 0.821),
  )

  /** Paper OnlineSTL MASE per dataset. */
  val paperOnlineSTLMase: Map[String, Double] = Map(
    "Bike sharing" -> 0.430, "Daily female births" -> 0.462, "Elecequip" -> 0.292,
    "Min temperature" -> 0.396, "Internet traffic" -> 0.618)

  private def cell(x: Array[Double], d: Decomposition, m: Int): Cell =
    Cell(Metrics.maseResidual(x, d, m), Metrics.logTrendSmoothness(d.trend))

  /** Batch algorithm pairs: (offline instance, cheaper online-mode instance).
    * The online counterpart re-runs the batch fit for *every* point, so its
    * inner optimizers are trimmed (fewer NM evals, smaller SSA embedding) to
    * keep the table reproducible in minutes — noted in EXPERIMENTS.md.
    * Table 4 runs the same roster.
    */
  private[exp] def algos(multi: Boolean): Seq[(Decomposer, Decomposer)] = Seq(
    (new MSTL(), new MSTL()),
    (new SSA(), new SSA(maxL = 100)),
    (new STR(), new STR()),
    (new TBATS(), new TBATS(maxEvals = 40)),
    (new RobustSTL(multiSeasonal = multi), new RobustSTL(multiSeasonal = multi)),
  )

  def run(datasets: Seq[(String, TimeSeriesGen.Generated)] = TimeSeriesGen.realDatasets()): Seq[Row] =
    datasets.flatMap { case (dsName, g) =>
      val m = g.periods.max
      val multi = g.periods.size > 1
      val batchRows = algos(multi).map { case (offAlgo, onAlgo) =>
        val off = cell(g.x, offAlgo.decompose(g.x, g.periods), m)
        val on  = cell(g.x, new OnlineCounterpart(onAlgo).decomposeAll(g.x, g.periods), m)
        Row(dsName, g.n, g.periods, offAlgo.name, Some(off), Some(on))
      }
      val ostl = cell(g.x, new OnlineSTL(g.periods).decomposeAll(g.x), m)
      batchRows :+ Row(dsName, g.n, g.periods, "OnlineSTL", None, Some(ostl))
    }

  def format(rows: Seq[Row]): String = {
    val header = f"${"Dataset"}%-20s ${"Algorithm"}%-11s ${"MASE off/on"}%16s " +
      f"${"logSmooth off/on"}%18s ${"paper MASE off/on"}%18s"
    val body = rows.map { r =>
      def fc(c: Option[Cell], f: Cell => Double): String =
        c.map(v => f"${f(v)}%.3f").getOrElse("  -  ")
      val paperStr = paperMase.get((r.dataset, r.algorithm))
        .map(p => f"${p._1}%.3f/${p._2}%.3f")
        .orElse(if (r.algorithm == "OnlineSTL") paperOnlineSTLMase.get(r.dataset).map(v => f"-/${v}%.3f") else None)
        .getOrElse("-")
      f"${r.dataset}%-20s ${r.algorithm}%-11s ${fc(r.offline, _.mase)}%7s/${fc(r.online, _.mase)}%-8s " +
        f"${fc(r.offline, _.logSmooth)}%8s/${fc(r.online, _.logSmooth)}%-9s $paperStr%18s"
    }
    (header +: body).mkString("\n")
  }
}
