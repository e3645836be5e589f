package repro.core

import repro.SparkSpec
import repro.data.TimeSeriesGen
import repro.metrics.Metrics
import scala.util.Random

class OnlineSTLSpec extends SparkSpec {

  private def seasonalSeries(n: Int, m: Int, trendSlope: Double,
                             amp: Double, noise: Double, seed: Int): Array[Double] = {
    val rng = new Random(seed)
    Array.tabulate(n)(t =>
      10.0 + trendSlope * t + amp * math.sin(2 * math.Pi * t / m) + rng.nextGaussian() * noise)
  }

  test("constructor validates periods and gamma") {
    intercept[IllegalArgumentException](new OnlineSTL(Seq.empty))
    intercept[IllegalArgumentException](new OnlineSTL(Seq(1)))
    intercept[IllegalArgumentException](new OnlineSTL(Seq(7, 7)))
  }

  test("m is the maximum seasonality") {
    assert(new OnlineSTL(Seq(7, 28)).m == 28)
    assert(new OnlineSTL(Seq(24)).m == 24)
  }

  test("no emissions until the 4m-th point; then the whole backlog at once") {
    val m = 6
    val stl = new OnlineSTL(Seq(m))
    val xs = seasonalSeries(4 * m + 5, m, 0.01, 2.0, 0.0, 1)
    var emitted = 0
    for (i <- 0 until 4 * m - 1) {
      val out = stl.push(xs(i))
      assert(out.isEmpty, s"unexpected emission at point $i")
      assert(!stl.isReady)
    }
    val burst = stl.push(xs(4 * m - 1))
    assert(burst.size == 4 * m, s"init burst should emit 4m points, got ${burst.size}")
    assert(stl.isReady)
    emitted = burst.size
    for (i <- 4 * m until xs.length) {
      val out = stl.push(xs(i))
      assert(out.size == 1)
      emitted += 1
    }
    assert(emitted == xs.length)
  }

  test("emitted indices are sequential from 0") {
    val m = 5
    val stl = new OnlineSTL(Seq(m))
    val xs = seasonalSeries(4 * m + 10, m, 0.0, 1.0, 0.0, 2)
    val pts = xs.flatMap(stl.push)
    assert(pts.map(_.index).toSeq == (0 until xs.length).map(_.toLong))
  }

  test("decomposition identity holds exactly: X = T + sum(S) + R") {
    val m = 8
    val xs = seasonalSeries(4 * m + 50, m, 0.05, 3.0, 0.5, 3)
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    for (i <- xs.indices) {
      val recon = d.trend(i) + d.seasonals.map(_(i)).sum + d.residual(i)
      assert(math.abs(recon - xs(i)) < 1e-9, s"identity violated at $i")
    }
  }

  test("recovers a linear trend with small relative error (noise-free)") {
    val m = 12
    val n = 4 * m + 20 * m
    val xs = Array.tabulate(n)(t => 5.0 + 0.1 * t + 2.0 * math.sin(2 * math.Pi * t / m))
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    // after warm-up, trend should track 5 + 0.1t closely (lag of a few steps)
    val tail = (n / 2) until n
    val err = tail.map(i => math.abs(d.trend(i) - (5.0 + 0.1 * i))).max
    assert(err < 0.1 * m, s"max trend error $err too large")
  }

  test("recovers a stationary seasonal pattern (noise-free): residual near zero") {
    val m = 10
    val n = 4 * m + 30 * m
    val xs = Array.tabulate(n)(t => 20.0 + 4.0 * math.sin(2 * math.Pi * t / m))
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    // the non-symmetric trend filter keeps a small systematic lag bias, so the
    // bound is loose relative to the 4.0 amplitude
    val tailRes = (n - 10 * m until n).map(i => math.abs(d.residual(i)))
    assert(tailRes.sum / tailRes.size < 0.6, s"mean |residual| ${tailRes.sum / tailRes.size}")
  }

  test("seasonal estimates repeat with the period once converged") {
    val m = 7
    val n = 4 * m + 40 * m
    val xs = Array.tabulate(n)(t => 3.0 * math.cos(2 * math.Pi * t / m) + 1.0)
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    for (i <- (n - 2 * m) until (n - m))
      assert(math.abs(d.seasonals(0)(i) - d.seasonals(0)(i + m)) < 0.15,
        s"seasonality not periodic at $i")
  }

  test("multiple seasonalities: both components extracted") {
    val m1 = 6; val m2 = 24
    val n = 4 * m2 + 40 * m2
    val xs = Array.tabulate(n)(t =>
      2.0 * math.sin(2 * math.Pi * t / m1) + 5.0 * math.sin(2 * math.Pi * t / m2) + 50.0)
    val d = new OnlineSTL(Seq(m1, m2)).decomposeAll(xs)
    assert(d.seasonals.size == 2)
    // each component should carry non-trivial signal at its own period
    val tail = (n - 10 * m2) until n
    val amp1 = tail.map(i => math.abs(d.seasonals(0)(i))).max
    val amp2 = tail.map(i => math.abs(d.seasonals(1)(i))).max
    assert(amp1 > 0.8, s"short-period component too weak: $amp1")
    assert(amp2 > 2.0, s"long-period component too weak: $amp2")
    // residual after removing both should be small relative to signal
    val meanRes = tail.map(i => math.abs(d.residual(i))).sum / tail.size
    assert(meanRes < 1.2, s"mean residual $meanRes")
  }

  test("adapts to a seasonality amplitude shift (online property)") {
    val m = 10
    val n1 = 4 * m + 30 * m
    val n2 = 30 * m
    val xs = Array.tabulate(n1 + n2) { t =>
      val amp = if (t < n1) 2.0 else 6.0
      amp * math.sin(2 * math.Pi * t / m)
    }
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    val lateAmp = ((n1 + n2 - 5 * m) until (n1 + n2)).map(i => math.abs(d.seasonals(0)(i))).max
    assert(lateAmp > 4.0, s"did not adapt to new amplitude: $lateAmp")
  }

  test("decomposeAll rejects series shorter than 4m") {
    val stl = new OnlineSTL(Seq(10))
    intercept[IllegalArgumentException](stl.decomposeAll(Array.fill(39)(1.0)))
  }

  test("state space is O(4m): serialized size independent of points seen") {
    def sizeAfter(periods: Seq[Int], points: Int): Int = {
      val stl = new OnlineSTL(periods)
      seasonalSeries(points, periods.max, 0.01, 1.0, 0.1, 4).foreach(stl.push)
      stl.state.values.length
    }
    // A (4m) + K_p (3m_p) + D (m) + E_{p,T} (m_p) doubles, plus the sliding
    // trend trackers (Slots doubles for each of A per period, K_p and D),
    // exactly, however many points were seen. E_{p,S} is K_p's newest period.
    for (ps <- Seq(Seq(20), Seq(7, 28))) {
      val m = ps.max
      val exact = 4 * m + 4 * ps.sum + m + SlidingTricube.Slots * (2 * ps.size + 1)
      for (points <- Seq(4 * m, 4 * m + 10, 4 * m + 5000))
        assert(sizeAfter(ps, points) == exact, s"periods $ps after $points points")
      // warm-up points live in the 4m window itself, so state does not peak before init
      for (points <- Seq(0, 1, 2 * m, 4 * m - 1))
        assert(sizeAfter(ps, points) <= exact, s"periods $ps after $points points")
    }
  }

  test("serialized state resumes identically (streaming checkpoint semantics)") {
    val m = 6
    val xs = seasonalSeries(4 * m + 60, m, 0.02, 2.0, 0.3, 5)
    // cuts mid warm-up, one point before init, and after init; two periods
    // give rings of different capacities. 72 points is a multiple of every
    // tracker window (4m_p, 3m_p and m for both period sets), so the trackers
    // all recompute on the 72nd point: cut just before, at and after it.
    val refresh = 72
    for (periods <- Seq(Seq(m), Seq(3, m));
         cut <- Seq(2 * m, 4 * m - 1, 4 * m + 30, refresh - 1, refresh, refresh + 1)) {
      val stl = new OnlineSTL(periods)
      xs.take(cut).foreach(stl.push)
      val copy = OnlineSTL.restore(periods, stl.state)
      assert(copy.pointsSeen == stl.pointsSeen)
      for (i <- cut until xs.length) {
        val a = stl.push(xs(i))
        val b = copy.push(xs(i))
        assert(a.size == b.size, s"periods $periods, cut $cut, point $i: ${a.size} vs ${b.size} emitted")
        for ((p, q) <- a.zip(b)) {
          assert(p.index == q.index && p.trend == q.trend && p.residual == q.residual,
            s"periods $periods, cut $cut, point $i: $p vs $q")
          assert(p.seasonals.toSeq == q.seasonals.toSeq)
        }
      }
    }
  }

  test("restore rejects a record whose version, periods or length does not match") {
    val xs = seasonalSeries(4 * 28 + 3, 28, 0.01, 1.0, 0.1, 7)
    def stateOf(stl: OnlineSTL): OnlineSTL.State = { xs.foreach(stl.push); stl.state }
    val ps = Seq(5, 10, 28)
    val st = stateOf(new OnlineSTL(ps))
    assert(OnlineSTL.restore(ps, st).pointsSeen == st.seen)
    // (7, 8, 28) shares m and Σm_p with (5, 10, 28): its records are as long,
    // so only the periods tell them apart.
    val other = Seq(7, 8, 28)
    assert(stateOf(new OnlineSTL(other)).values.length == st.values.length)
    def rejected(periods: Seq[Int], bad: OnlineSTL.State, what: String): Unit = {
      val e = intercept[IllegalArgumentException](OnlineSTL.restore(periods, bad))
      assert(e.getMessage.contains(what), e.getMessage)
    }
    rejected(ps, st.copy(version = st.version + 1), "version")
    rejected(ps, st.copy(version = 0), "version")
    rejected(other, st, "periods")
    rejected(ps.reverse, st, "periods")
    rejected(ps, st.copy(values = st.values.init), "values")
    rejected(ps, st.copy(values = st.values :+ 0.0), "values")
    rejected(ps, st.copy(seen = 4L * 28 - 1), "values") // a warm-up record is shorter
    rejected(ps, st.copy(seen = -1L), "seen")
    // the paper kernel keeps no moments, so its records do not restore
    rejected(ps, stateOf(new OnlineSTL(ps, TrendFilter)), "values")
  }

  test("OnlineSTL stays java-serializable after init (perfbench reads its size)") {
    val stl = new OnlineSTL(Seq(7, 28))
    seasonalSeries(4 * 28 + 3, 28, 0.01, 1.0, 0.1, 8).foreach(stl.push)
    val out = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream())
    try out.writeObject(stl)
    catch {
      case e: java.io.NotSerializableException =>
        fail("perfbench's BatchBench.keyStateBytes and CoreProbe.serializedBytes java-serialize an " +
          "OnlineSTL to report state_bytes_per_key (batch) and core.stl.state_serialized_bytes", e)
    } finally out.close()
  }

  /** Default (sliding) OnlineSTL against the paper-kernel one on every
    * emitted trend, seasonal and residual, within 1e-9 × max |x|.
    */
  private def assertMatchesPaperKernel(periods: Seq[Int], xs: Array[Double]): Unit = {
    val fast = new OnlineSTL(periods)
    val paper = new OnlineSTL(periods, TrendFilter)
    val tol = 1e-9 * xs.map(math.abs).max
    for (x <- xs) {
      val a = fast.push(x)
      val b = paper.push(x)
      assert(a.size == b.size)
      for ((p, q) <- a.zip(b)) {
        val diffs = math.abs(p.trend - q.trend) +: math.abs(p.residual - q.residual) +:
          p.seasonals.indices.map(j => math.abs(p.seasonals(j) - q.seasonals(j)))
        assert(diffs.max <= tol, s"periods $periods, point ${p.index}: $p vs $q")
      }
    }
    assert(fast.pointsSeen == xs.length)
  }

  for (m <- Seq(10, 100, 1000)) {
    test(s"sliding trend filters match the paper kernel end to end, m=$m over 40m points") {
      assertMatchesPaperKernel(Seq(m), seasonalSeries(40 * m, m, 0.01, 3.0, 1.0, m))
    }
  }

  test("sliding trend filters match the paper kernel end to end, m=10000 over 5m points") {
    val m = 10000
    assertMatchesPaperKernel(Seq(m), Array.tabulate(5 * m)(t => TimeSeriesGen.metricPoint(0L, t.toLong, m)))
  }

  test("sliding trend filters match the paper kernel end to end, periods (7, 28)") {
    val rng = new Random(11)
    val xs = Array.tabulate(40 * 28)(t =>
      1e6 + 2.0 * math.sin(2 * math.Pi * t / 7) + 5.0 * math.sin(2 * math.Pi * t / 28) + rng.nextGaussian())
    assertMatchesPaperKernel(Seq(7, 28), xs)
  }

  test("beats the seasonal-naive baseline on MASE for a clean seasonal series") {
    val m = 14
    val n = 4 * m + 40 * m
    val rng = new Random(9)
    val xs = Array.tabulate(n)(t =>
      0.02 * t + 3.0 * math.sin(2 * math.Pi * t / m) + rng.nextGaussian() * 0.3)
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    val mase = Metrics.maseResidual(xs, d, m)
    assert(mase < 1.0, s"MASE $mase should beat seasonal naive (1.0)")
  }

  test("trend is smoother than the raw series") {
    val m = 10
    val rng = new Random(10)
    val xs = Array.tabulate(4 * m + 60 * m)(t =>
      0.01 * t + 2.0 * math.sin(2 * math.Pi * t / m) + rng.nextGaussian() * 1.0)
    val d = new OnlineSTL(Seq(m)).decomposeAll(xs)
    assert(Metrics.trendSmoothness(d.trend) < Metrics.trendSmoothness(xs))
  }

  for (m <- Seq(4, 12, 30)) {
    test(s"period m=$m: per-point emission after init, identity holds") {
      val rng = new Random(m)
      val stl = new OnlineSTL(Seq(m))
      var i = 0
      val n = 4 * m + 3 * m
      while (i < n) {
        val x = math.sin(2 * math.Pi * i / m) + rng.nextGaussian() * 0.1
        val out = stl.push(x)
        out.foreach { p =>
          assert(math.abs(p.trend + p.seasonalSum + p.residual - p.value) < 1e-9)
        }
        i += 1
      }
      assert(stl.pointsSeen == n)
    }
  }
}
