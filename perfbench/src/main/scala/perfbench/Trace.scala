package perfbench

import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable

/** One timed interval: `parent` is the id of the enclosing span (0 for a
  * root) and `run` names the workload run it belongs to ("" for set-up and
  * probes). Times are `System.nanoTime` stamps of this JVM.
  */
final case class Span(id: Int, name: String, parent: Int, run: String, startNs: Long, endNs: Long)

/** Records spans in memory around the benchmark's calls into the program.
  * When disabled, `span` only evaluates its body.
  */
final class Tracer(val enabled: Boolean) {
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val nextId = new AtomicInteger(0)
  private val stack  = new ThreadLocal[List[Int]] { override def initialValue(): List[Int] = Nil }

  def span[A](name: String, run: String = "")(body: => A): A =
    if (!enabled) body
    else {
      val id      = nextId.incrementAndGet()
      val parents = stack.get
      stack.set(id :: parents)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        stack.set(parents)
        add(Span(id, name, parents.headOption.getOrElse(0), run, t0, t1))
      }
    }

  /** Adds a span measured elsewhere (inside a Spark task), by default under
    * the current span, and returns its id.
    */
  def record(name: String, run: String, startNs: Long, endNs: Long,
             parent: Int = stack.get.headOption.getOrElse(0)): Int =
    if (!enabled) 0
    else {
      val id = nextId.incrementAndGet()
      add(Span(id, name, parent, run, startNs, endNs))
      id
    }

  private def add(s: Span): Unit = synchronized { spans += s }

  def all: Seq[Span] = synchronized(spans.toVector)
}
