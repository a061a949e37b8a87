package repro

import java.util.stream.IntStream
import org.apache.spark.TaskContext
import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.reflect.ClassTag

/** The two fan-outs, both `items.map(f)` with results in input order, so for
  * a deterministic `f` every path returns the same sequence.
  *
  * `map` runs one Spark task per item when a session is given; `f` is
  * broadcast once, so the data it captures reaches each executor once rather
  * than with every task. Without a session it is `local`.
  *
  * `local` runs the items on the JDK's common fork-join pool, the calling
  * thread taking part. Called from a fork-join worker it stays in that
  * worker's pool, so fan-outs nest, and inside a one-thread pool it is serial.
  * Inside a Spark task it runs the items on the task's own thread: the tasks
  * already keep every core busy, and forking there made FPE labeling slower.
  */
object FanOut {
  def map[A: ClassTag, B: ClassTag](spark: Option[SparkSession], items: Seq[A])(f: A => B): Seq[B] =
    spark match {
      case Some(s) if items.nonEmpty =>
        val fb = s.sparkContext.broadcast(f)
        s.sparkContext.parallelize(items, items.size).map(fb.value(_)).collect().toSeq
      case _ => local(items)(f)
    }

  def local[A, B: ClassTag](items: Seq[A])(f: A => B): Seq[B] = {
    val in    = items.toIndexedSeq
    val out   = new Array[B](in.size)
    val range = IntStream.range(0, in.size)
    (if (TaskContext.get() == null) range.parallel() else range).forEach(i => out(i) = f(in(i)))
    ArraySeq.unsafeWrapArray(out)
  }
}
