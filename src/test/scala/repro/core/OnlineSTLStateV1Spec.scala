package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Restores records of `OnlineSTL.State` layout version 1, pinned as raw bits.
  * Version 1 also held each `E_{p,S}`, between the rings and the `E_{p,T}`.
  * The records were written by the version-1 code for periods (3, 6) over
  * [[series]], one mid warm-up and one after init. No SparkSession.
  */
class OnlineSTLStateV1Spec extends AnyFunSuite {

  private val ps = Seq(3, 6)

  /** Trend, one sine per period and LCG noise in [−0.5, 0.5), from integer
    * arithmetic and `StrictMath` only, so every JVM feeds the same points.
    */
  private def series(n: Int): Array[Double] = {
    var r = 42L
    Array.tabulate(n) { t =>
      r = r * 6364136223846793005L + 1442695040888963407L
      val noise = (r >>> 11).toDouble / (1L << 53) - 0.5
      ps.foldLeft(1000.0 + 0.01 * t + noise)((x, p) =>
        x + 3.0 * StrictMath.sin(2 * StrictMath.PI * (t % p) / p))
    }
  }

  private def v1(seen: Long, bits: Array[Long]): OnlineSTL.State =
    OnlineSTL.State(1, ps.toArray, seen, bits.map(java.lang.Double.longBitsToDouble))

  /** After 10 points: `A` holds them. The 9 `E_{p,S}`, the 9 `E_{p,T}` and the
    * 5 trackers' 11 moments are still zero.
    */
  private val warmUp = v1(10, Array(
    0x408f408bbc576c3fL, 0x408f6773f302fa54L, 0x408f3f7673efbea0L, 0x408f41487ec5d33aL,
    0x408f41c2dcda8321L, 0x408f130a658aaf48L, 0x408f3ca772354286L, 0x408f67594edee5f0L,
    0x408f406e83062000L, 0x408f3ceb1be75dbaL) ++ Array.fill(9 + 9 + 5 * 11)(0L))

  /** After 29 points (init ran on the 24th): `A` (24), `K_3` (9), `K_6` (18),
    * `D` (6), `E_{3,S}`, `E_{6,S}`, `E_{3,T}`, `E_{6,T}` and the moments (55).
    */
  private val afterInit = v1(29, Array(
    0x408f130a658aaf48L, 0x408f3ca772354286L, 0x408f67594edee5f0L, 0x408f406e83062000L,
    0x408f3ceb1be75dbaL, 0x408f3fa76da55787L, 0x408f178abed2f886L, 0x408f4452e2157c66L,
    0x408f6938aae448c0L, 0x408f437cb024b56cL, 0x408f4053b4f68e82L, 0x408f43962eeca571L,
    0x408f14540ddef182L, 0x408f40d05967267fL, 0x408f6cbfc4755c48L, 0x408f405816ac38ccL,
    0x408f411dbad6a342L, 0x408f410efeaf95b3L, 0x408f170715a26af8L, 0x408f41084fc5bddeL,
    0x408f6bc4b294572cL, 0x408f4258ac1f31ceL, 0x408f420978acf8f0L, 0x408f41904c9f9933L,
    0xbffbe8df08d43504L, 0xbf8a8ef27d72e6c6L, 0x3fff9384ac6cb5a7L, 0xc007239883ba07daL,
    0x3fd5c8351723ed09L, 0x40109fb01f3d5e86L, 0xbfeead61bceded6eL, 0xbf9cd0447d7f4164L,
    0x3ff15985585f87d5L, 0xbffb483446196d99L, 0x3fd37d651882f429L, 0x3ff80387fdf918c7L,
    0x40014e3b5c0bd5c0L, 0xbfa03107d637e5c1L, 0xc001172765f734abL, 0xbffbed66d911747aL,
    0x3fba3c4a3fcbc1ccL, 0x3ff9e0bb3da9356eL, 0x400328ae7e009fedL, 0x3fd5eabfa09748fcL,
    0xbfff1f45fe8df866L, 0xbfff926c0aed9324L, 0xbf91bcb4956b643dL, 0x3ff8062f31ec2508L,
    0x3ff91fe883d87528L, 0x3fd25e55a5a48de5L, 0xbff0f7837e3809b8L, 0x408f388446d83b12L,
    0x408f3df46c80b0bbL, 0x408f41e71d55d199L, 0x408f406e0226b551L, 0x408f4324bf513486L,
    0x408f4565cf9a2697L, 0xbf9cd0447d7f4164L, 0x3ff15985585f87d5L, 0xbfeead61bceded6eL,
    0xbf91bcb4956b643dL, 0x3ff8062f31ec2508L, 0x3ff91fe883d87528L, 0x3fd25e55a5a48de5L,
    0xbff0f7837e3809b8L, 0xbfff926c0aed9324L, 0xbfd29cf115b2691aL, 0x3fe2d72c7c8e3662L,
    0xbff316f52253ec7eL, 0x3facb50a520eee7fL, 0x3ff76f766a9d68aeL, 0x3ff6ec49134ce54eL,
    0x3fc38577e7ab7770L, 0xbff1169c3361e3eeL, 0xbff801a54c6fed6eL, 0x40c770e2f85562a0L,
    0x40f01c196cb80aa1L, 0x411ede3714b61d84L, 0x41509a849dc473cfL, 0x41830a3cdb3162ecL,
    0x41b6ba98bef534d6L, 0x41ebe3d4d5d647f2L, 0x42217504b9d962fcL, 0x42562fe32c7860efL,
    0x428c88a59a6a14feL, 0x401dc59a3bb2be54L, 0x40d77075c4c2e3efL, 0x4110d7cd854f7bd8L,
    0x41507d4945aa76d2L, 0x419227315970b456L, 0x41d550510d4d1efeL, 0x421a103c63c6eabeL,
    0x4260637b25d2ddb6L, 0x42a5095060af3cceL, 0x42eb6d3d9e018ae1L, 0x43321992d9c07c31L,
    0x402cc57e3b6b1b0cL, 0x3ffeaeb7e1da9495L, 0xc0132173b9456320L, 0xc052a340213b0050L,
    0xc086143da40108b4L, 0xc0b781ad319cb374L, 0xc0e849bb624fc844L, 0xc118e000c9e14be8L,
    0xc14963a6420df1dcL, 0xc179d9a784228fa8L, 0xc1aa411682ef9768L, 0x4016d46348133931L,
    0x3ff2b7f75d57f532L, 0x401b98bb3db03120L, 0x40413858a56e3cd0L, 0xc0694930072f9bc0L,
    0xc0ce392cc2b17240L, 0xc11bb486064631f0L, 0xc1648f31849e2650L, 0xc1abbbb72e1703a0L,
    0xc1f1b036da5b09f0L, 0xc235ba62c5edb1c0L, 0x4025d421b8ed5176L, 0x40b7702b0c3819baL,
    0x40cd49c1d2fdbfe3L, 0x40ead7e8ba0c64e6L, 0x410b734fa6a0550fL, 0x412ddb84e0a81f58L,
    0x4150de3cbd65677fL, 0x41738cc3a42fc2b4L, 0x4197110b8f2ad7ecL, 0x41bb92b11904db94L,
    0x41e0a4352474eb20L, 0x400fc7452e00b3cdL))

  test("restores version-1 records, mid warm-up and after init, and goes on exactly") {
    // The fact version 2 rests on: in the post-init record, each E_{p,S}[r]
    // is bit-equal to K_p's newest entry of phase r.
    val m = ps.max
    val kAt = ps.scanLeft(4 * m)(_ + 3 * _)    // where each K_p starts
    val esAt = ps.scanLeft(kAt.last + m)(_ + _) // where each E_{p,S} starts
    for ((p, pi) <- ps.zipWithIndex; r <- 0 until p) {
      // K_p holds points seen − 3p … seen − 1, oldest first; its newest entry
      // of phase r is the one of the last p points whose index is r mod p.
      val g = (afterInit.seen - p until afterInit.seen).find(_ % p == r).get
      val k = afterInit.values(kAt(pi) + 3 * p - (afterInit.seen - g).toInt)
      val es = afterInit.values(esAt(pi) + r)
      assert(java.lang.Double.doubleToRawLongBits(k) == java.lang.Double.doubleToRawLongBits(es),
        s"period $p, phase $r: K_p has $k, E_{p,S} has $es")
    }
    val xs = series(80)
    for (st <- Seq(warmUp, afterInit)) {
      val fresh = new OnlineSTL(ps)
      xs.take(st.seen.toInt).foreach(fresh.push)
      val copy = OnlineSTL.restore(ps, st)
      assert(copy.pointsSeen == st.seen)
      assert(copy.state.values.sameElements(fresh.state.values), s"seen ${st.seen}")
      for (i <- st.seen.toInt until xs.length) {
        val (a, b) = (fresh.push(xs(i)), copy.push(xs(i)))
        assert(a.size == b.size, s"seen ${st.seen}, point $i")
        for ((p, q) <- a.zip(b)) {
          assert(p.index == q.index && p.trend == q.trend && p.residual == q.residual,
            s"seen ${st.seen}, point $i: $p vs $q")
          assert(p.seasonals.toSeq == q.seasonals.toSeq)
        }
      }
    }
  }
}
