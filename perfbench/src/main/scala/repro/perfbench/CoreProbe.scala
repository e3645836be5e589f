package repro.perfbench

import java.lang.management.ManagementFactory
import repro.core.{CircularBuffer, OnlineSTL, TrendFilter}

/** Standalone, single-threaded timings of the `core.kernel` and `core.stl`
  * layers at a workload's seasonality m, on the same generated series.
  */
object CoreProbe {
  final case class Result(
      dotNs: Seq[(String, Double)], symmetricMs: Double,
      initMsPerKey: Double, updateNsPerPoint: Double,
      allocBytesPerPoint: Double, stateSerializedBytes: Double)

  private val Reps = 5

  private def series(seed: Long, key: Long, n: Int, m: Int): Array[Double] =
    Array.tabulate(n)(t => Workload.value(seed, key, t.toLong, m))

  private var sink = 0.0 // keeps the timed calls from being optimised away

  def run(m: Int, seed: Long, trace: Trace): Result = {
    val xs = series(seed, 0, 4 * m, m)
    val ring = new CircularBuffer(4 * m)
    ring.pushAll(xs)
    val dotNs = Seq("l4m" -> 4 * m, "l3m" -> 3 * m, "lm" -> m).map { case (label, lambda) =>
      trace("core.kernel", s"nonSymmetric λ=$lambda") {
        val calls = math.max(200, 4000000 / lambda)
        label -> Stats.median(Array.fill(Reps) {
          val (s, _) = Stats.timed {
            var i = 0
            while (i < calls) { sink += TrendFilter.nonSymmetric(ring, lambda); i += 1 }
          }
          s * 1e9 / calls
        })
      }
    }
    val symmetricMs = trace("core.kernel", "symmetric") {
      Stats.median(Array.fill(Reps)(Stats.timed(sink += TrendFilter.symmetric(xs, 2 * m)(0))._1 * 1e3))
    }

    // core.stl: per key, the 4m warm-up pushes ending in init (§5.2), then
    // online updates (Alg. 1); the first key only warms the JIT.
    val updates = math.max(4 * m, 20000)
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val runs = (0 until 4).map { k =>
      trace("core.stl", s"key $k") {
        val ys = series(seed, k, 4 * m + updates, m)
        val stl = new OnlineSTL(Seq(m))
        val (initS, _) = Stats.timed { var t = 0; while (t < 4 * m) { stl.push(ys(t)); t += 1 } }
        val alloc0 = threads.getCurrentThreadAllocatedBytes
        val (updS, _) = Stats.timed {
          var t = 4 * m
          while (t < ys.length) { sink += stl.push(ys(t)).head.trend; t += 1 }
        }
        val alloc = (threads.getCurrentThreadAllocatedBytes - alloc0).toDouble / updates
        (initS * 1e3, updS * 1e9 / updates, alloc, stl)
      }
    }.drop(1)
    val stateBytes = trace("core.stl", "serialize")(serializedBytes(runs.last._4).toDouble)
    Result(dotNs, symmetricMs,
      initMsPerKey = Stats.median(runs.map(_._1).toArray),
      updateNsPerPoint = Stats.median(runs.map(_._2).toArray),
      allocBytesPerPoint = Stats.median(runs.map(_._3).toArray),
      stateSerializedBytes = stateBytes)
  }

  /** Java-serialized size: the encoding the streaming job stores per key. */
  def serializedBytes(o: AnyRef): Int = {
    val bytes = new java.io.ByteArrayOutputStream()
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(o)
    out.close()
    bytes.size
  }
}
