package repro.perfbench

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer

/** In-memory spans recorded around the benchmark's calls into each layer.
  *
  * A span has a layer, a name, start and end (`System.nanoTime`), and the
  * span that caused it. The parent is the innermost open span of the calling
  * thread; a thread started by the benchmark is given its parent explicitly.
  * When disabled every method is a pass-through and nothing is recorded.
  */
final class Trace(val enabled: Boolean) {
  import Trace.Span

  private val spans = ArrayBuffer.empty[Span]
  private val ids = new AtomicInteger(1)
  private val open = new ThreadLocal[Integer] { override def initialValue(): Integer = 0 }

  /** Run `body` inside a span of `layer`. */
  def apply[T](layer: String, name: String)(body: => T): T =
    if (!enabled) body
    else {
      val id = ids.getAndIncrement()
      val parent: Int = open.get
      open.set(id)
      val t0 = System.nanoTime()
      try body
      finally {
        open.set(parent)
        add(Span(id, parent, layer, name, t0, System.nanoTime()))
      }
    }

  /** Id of the innermost open span on this thread (0 at top level). */
  def current: Int = open.get

  /** Make `parent` the open span of the calling thread. */
  def adopt(parent: Int): Unit = if (enabled) open.set(parent)

  /** Record a span measured elsewhere (e.g. rebuilt from query progress). */
  def record(layer: String, name: String, startNs: Long, endNs: Long, parent: Int): Int =
    if (!enabled) 0
    else {
      val id = ids.getAndIncrement()
      add(Span(id, parent, layer, name, startNs, endNs))
      id
    }

  private def add(s: Span): Unit = spans.synchronized { spans += s }

  def all: Seq[Span] = spans.synchronized(spans.toList)

  /** Self time per layer in ms: each span's duration minus the part of it
    * that its children cover, summed over the layer's spans.
    */
  def selfMs: Map[String, Double] = {
    val ss = all
    val children = ss.groupBy(_.parent)
    ss.groupBy(_.layer).map { case (layer, mine) =>
      layer -> mine.map { s =>
        val covered = Trace.unionLength(children.getOrElse(s.id, Nil).map { c =>
          (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs))
        })
        (s.endNs - s.startNs - covered) / 1e6
      }.sum
    }
  }

  def toJson: String = all.map(s => Json.obj(Seq(
    "id" -> s.id, "parent" -> s.parent, "layer" -> s.layer, "name" -> s.name,
    "start_ns" -> s.startNs, "end_ns" -> s.endNs))).mkString("[", ",\n", "]")
}

object Trace {
  final case class Span(id: Int, parent: Int, layer: String, name: String, startNs: Long, endNs: Long)

  /** Total length covered by a set of [start, end) intervals. */
  def unionLength(iv: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    for ((s, e) <- iv.filter(x => x._2 > x._1).sortBy(_._1)) {
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }
}
