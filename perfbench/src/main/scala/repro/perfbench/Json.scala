package repro.perfbench

/** Just enough JSON output for result lines, result files and span dumps. */
object Json {

  /** A JSON object whose fields keep their order. */
  final case class Obj(fields: Seq[(String, Any)])

  def render(v: Any): String = v match {
    case null | None => "null"
    case Some(x) => render(x)
    case s: String => quote(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case Obj(fields) => fields.map { case (k, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case xs: Array[_] => render(xs.toSeq)
    case other => quote(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String = render(Obj(fields))

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
