package repro.exp

import repro.SparkSpec
import repro.data.TimeSeriesGen

/** Small-scale smoke tests of the four table harnesses — full-scale runs
  * live in bench/ (one suite per paper table).
  */
class ExpSmokeSpec extends SparkSpec {

  test("Table1 harness runs at a small seasonality and ranks OnlineSTL first") {
    val rows = Table1.run(seasonality = 24, onlineSTLPoints = 5000, stepsFast = 3, stepsSlow = 1)
    assert(rows.size == 8)
    assert(rows.map(_.algorithm).toSet ==
      Set("OnlineSTL", "stl", "MSTL", "TBATS", "STR", "SSA", "RobustSTL", "frobustSTL"))
    assert(rows.forall(_.throughputPerSec > 0))
    assert(rows.head.algorithm == "OnlineSTL", s"fastest was ${rows.head.algorithm}")
    assert(Table1.format(rows).linesIterator.size == 9)
  }

  test("Table2 harness runs one small seasonality end to end") {
    val rows = Table2.run(spark, Seq(10), _ => (8, 120))
    assert(rows.size == 1)
    val r = rows.head
    assert(r.totalPoints == 8L * 120)
    assert(r.totalEventsPerSec > 0)
    assert(r.throughputPerCore > 0)
    assert(r.stateBytes > 0)
    assert(Table2.format(rows).nonEmpty)
  }

  test("Table3 harness runs on one tiny dataset") {
    val tiny = Seq("Elecequip" -> TimeSeriesGen.elecequip())
    val rows = Table3.run(tiny)
    assert(rows.size == 6) // 5 batch algos + OnlineSTL
    assert(rows.count(_.algorithm == "OnlineSTL") == 1)
    for (r <- rows if r.algorithm != "OnlineSTL") {
      assert(r.offline.isDefined && r.online.isDefined)
      assert(r.offline.get.mase >= 0)
    }
    assert(Table3.format(rows).nonEmpty)
  }

  test("Table4 harness runs on a reduced synthetic series") {
    val g = TimeSeriesGen.synthetic(n = 420, periods = Seq(10, 20), noiseStd = 0.3)
    val rows = Table4.run(g)
    assert(rows.size == 11) // OnlineSTL + 5 offline + 5 online
    assert(rows.map(_.algorithm).distinct.size == 11)
    assert(rows.forall(r => r.maseS1 >= 0 && r.maseS2 >= 0 && r.maseTrend >= 0))
    assert(Table4.format(rows).nonEmpty)
  }

  test("paper reference constants are present for diffing") {
    assert(Table1.paperClasses.size == 8)
    assert(Table2.paper.size == 4)
    assert(Table4.paper.size == 11)
    assert(Table3.paperMase.size == 25)
    assert(Table3.paperOnlineSTLMase.size == 5)
  }
}
