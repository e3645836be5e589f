package repro.core

import java.nio.ByteBuffer
import java.security.MessageDigest
import java.util.HexFormat
import org.scalatest.funsuite.AnyFunSuite

/** Pins every bit OnlineSTL emits, on both trend kernels, as a SHA-256 over
  * the raw bits of each point's index, value, trend, seasonals and residual.
  * A refactor that claims bit-identical outputs keeps these digests as they
  * are. The input comes from integer arithmetic and `StrictMath` only, so a
  * digest depends on OnlineSTL's arithmetic alone. No SparkSession.
  */
class OnlineSTLDigestSpec extends AnyFunSuite {

  private val kernels: Seq[(String, TrendKernel)] = Seq("sliding" -> SlidingTricube, "paper" -> TrendFilter)

  /** Trend, one sine per period and LCG noise in [−0.5, 0.5). */
  private def series(periods: Seq[Int], n: Int): Array[Double] = {
    var r = 42L
    Array.tabulate(n) { t =>
      r = r * 6364136223846793005L + 1442695040888963407L
      val noise = (r >>> 11).toDouble / (1L << 53) - 0.5
      periods.foldLeft(1000.0 + 0.01 * t + noise)((x, p) =>
        x + 3.0 * StrictMath.sin(2 * StrictMath.PI * (t % p) / p))
    }
  }

  private def digest(stl: OnlineSTL, xs: Array[Double]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = ByteBuffer.allocate(8)
    def put(bits: Long): Unit = { buf.clear(); md.update(buf.putLong(bits).array()) }
    def putD(x: Double): Unit = put(java.lang.Double.doubleToRawLongBits(x))
    var emitted = 0
    for (x <- xs; p <- stl.push(x)) {
      put(p.index); putD(p.value); putD(p.trend); p.seasonals.foreach(putD); putD(p.residual)
      emitted += 1
    }
    assert(emitted == xs.length)
    HexFormat.of().formatHex(md.digest())
  }

  // (periods, points) -> (sliding, paper) digest.
  private val pinned: Seq[((Seq[Int], Int), (String, String))] = Seq(
    (Seq(10), 400) ->
      ("c8a79d36daffc4962a7e36717f072c5142254e6a0439d1763e65310d0aa94ae7",
       "0ed76a31535355a446fa065cf35767e7b70bc1e1686ece9b0afe1eb5bee37f58"),
    (Seq(1000), 8000) ->
      ("30938a48ecb0c0e365eb7940969efa6eccbfbeba98d28796e65accfd44bfa2fc",
       "e324d2371fccb6b69ef68d3c44f76e5edc7786e2af731f15fdaa5fef74ab442c"),
    (Seq(7, 28), 40 * 28) ->
      ("4669c05a6fd6cad5ece65cb82b4e925e7a5cc6a1fee1ad402260c3030630209f",
       "af5a55f5edaff4d1f8adeacc8560078d19edfbaefb7d9029ff91d79f6883e757"),
    (Seq(24, 168), 8 * 168) ->
      ("eb143ae11b007b9287afa25038dc9d7483980876152366207d5ea1c7e4af836f",
       "b7c5e58d645671448badd5dadd18ec4eed2e74c4280f927fde7467b4521076c8"))

  test("emitted output bits match their pinned SHA-256 on both trend kernels") {
    val got = for {
      ((periods, n), (sliding, paper)) <- pinned
      ((name, kernel), want) <- kernels.zip(Seq(sliding, paper))
    } yield (s"periods $periods over $n points, $name kernel",
             digest(new OnlineSTL(periods, kernel), series(periods, n)), want)
    got.foreach { case (what, d, _) => info(s"$what: $d") }
    got.foreach { case (what, d, want) => assert(d == want, what) }
  }
}
