package repro.bench

import repro.SparkSpec
import repro.core.SlidingTricube
import repro.exp.Table2

/** Bench for paper Table 2: OnlineSTL on the Spark keyed dataflow across
  * seasonalities 10 / 100 / 1000 / 10000. The paper's absolute totals come
  * from a 128-vCPU Flink cluster; the comparable quantity here is throughput
  * per core and its *decay shape* as seasonality grows (throughput falls
  * with m, memory grows sublinearly). The shape asserts run on the paper's
  * ring-dot trend filters; the sliding-filter rows (beyond the paper) only
  * have to beat them at m=10000.
  */
class Table2StreamingBench extends SparkSpec {

  test("Table 2: dataflow throughput and memory vs seasonality") {
    val rows = Table2.run(spark)
    println("\n== Table 2 (measured vs paper), Spark keyed dataflow ==")
    println(Table2.format(rows))

    assert(rows.map(_.seasonality) == Seq(10, 100, 1000, 10000))
    rows.foreach(r => assert(r.totalEventsPerSec > 0))
    val byM = rows.map(r => r.seasonality -> r).toMap
    // shape: throughput per core decays as seasonality rises. At small m the
    // dataflow is row-overhead-bound (the paper's m=10 -> m=100 decay is only
    // 1.2x too), so the ordering checks compare across decades.
    assert(byM(10).throughputPerCore > byM(10000).throughputPerCore,
      "throughput should fall from m=10 to m=10000")
    assert(math.max(byM(10).throughputPerCore, byM(100).throughputPerCore) >
      byM(1000).throughputPerCore,
      "small-m throughput should exceed m=1000")
    assert(byM(100).throughputPerCore > byM(10000).throughputPerCore,
      "throughput should fall from m=100 to m=10000")
    // paper reports ~24x decay from m=10 to m=10000; require at least ~3x here
    assert(byM(10).throughputPerCore / byM(10000).throughputPerCore > 3,
      "decay with seasonality too weak")
    // the m=10000 configuration still clears the paper's 3.6K/slot class
    assert(byM(10000).throughputPerCore > 1000,
      s"m=10000 throughput/core ${byM(10000).throughputPerCore} too low")

    val fast = Table2.run(spark, kernel = SlidingTricube)
    println("\n== Table 2, sliding trend filters (beyond-paper) ==")
    println(Table2.format(fast))
    val fast10000 = fast.find(_.seasonality == 10000).get
    assert(fast10000.throughputPerCore > byM(10000).throughputPerCore,
      s"sliding filters at m=10000: ${fast10000.throughputPerCore}/core, not above the paper kernel's")
  }
}
