package repro.baselines

import repro.core.Decomposition

/** Common interface for every batch decomposition baseline (paper §7.1).
  * Implementations decompose a whole in-memory series at once; their online
  * counterparts are built generically by [[OnlineCounterpart]].
  */
trait Decomposer {
  /** Short name used in tables (e.g. "stl", "SSA"). */
  def name: String

  /** Additive decomposition of `xs` with the given seasonality periods.
    * `periods` is ascending; implementations that only support a single
    * seasonality may be handed the full list and must handle (or reject) it.
    */
  def decompose(xs: Array[Double], periods: Seq[Int]): Decomposition
}
