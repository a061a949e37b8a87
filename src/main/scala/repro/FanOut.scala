package repro

import org.apache.spark.sql.SparkSession
import scala.reflect.ClassTag

/** The one Spark fan-out: `items.map(f)`, run as one Spark task per item when
  * a session is given. `f` is broadcast once, so the data it captures reaches
  * each executor once rather than with every task. Results come back in
  * input order, so for a deterministic `f` both paths return the same sequence.
  */
object FanOut {
  def map[A: ClassTag, B: ClassTag](spark: Option[SparkSession], items: Seq[A])(f: A => B): Seq[B] =
    spark match {
      case Some(s) if items.nonEmpty =>
        val fb = s.sparkContext.broadcast(f)
        s.sparkContext.parallelize(items, items.size).map(fb.value(_)).collect().toSeq
      case _ => items.map(f)
    }
}
