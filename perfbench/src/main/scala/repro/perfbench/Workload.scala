package repro.perfbench

import repro.data.TimeSeriesGen

/** One benchmark workload: `TimeSeriesGen.metricPoint` series with one
  * period `m`, `keys` series, and either a bounded batch of `points` per key
  * (`decomposeBatch`) or, for a streaming workload, an init burst of
  * `points` = 4m per key followed by an open loop at `rate` events/s
  * (`decomposeStream`).
  */
final case class Workload(name: String, stream: Boolean, m: Int, keys: Int, points: Int,
                          rate: Double, samples: Int)

object Workload {

  /** Open-loop rate of `stream-m1000`, about half of the highest rate the
    * first measured commit sustained without a growing backlog.
    */
  val StreamRate = 6000.0

  // Points per key and m fix each workload's init/update split and may not
  // be scaled; the key count is sized so that one run stays short.
  private val full = Seq(
    Workload("batch-m10", stream = false, m = 10, keys = 100, points = 10000, rate = 0, samples = 3),
    Workload("batch-m1000", stream = false, m = 1000, keys = 64, points = 8000, rate = 0, samples = 3),
    Workload("stream-m1000", stream = true, m = 1000, keys = 8, points = 4000, rate = StreamRate, samples = 3))

  // The smoke size runs every code path in seconds; it is for the
  // benchmark's own tests, not for measurement.
  private val smoke = Seq(
    Workload("batch-m10", stream = false, m = 10, keys = 6, points = 200, rate = 0, samples = 2),
    Workload("batch-m1000", stream = false, m = 20, keys = 4, points = 160, rate = 0, samples = 2),
    Workload("stream-m1000", stream = true, m = 20, keys = 4, points = 80, rate = 400, samples = 2))

  def named(name: String, size: String): Option[Workload] = size match {
    case "full" => full.find(_.name == name)
    case "smoke" => smoke.find(_.name == name)
    case _ => None
  }

  /** Value of point `t` of key `key` (keys are 0 until K). The seed picks
    * which generated series each key carries, so it changes every value and
    * the noise, but not the keys: their partitions, and so the work each
    * task gets, are the same for every seed.
    */
  def value(seed: Long, key: Long, t: Long, m: Int): Double =
    TimeSeriesGen.metricPoint(1000L + seed * 100003L + key, t, m)

  /** The keys whose rows are compared with the sequential reference. */
  def sampleKeys(keys: Seq[Long], seed: Long, n: Int): Set[Long] =
    new scala.util.Random(seed).shuffle(keys).take(n).toSet
}
