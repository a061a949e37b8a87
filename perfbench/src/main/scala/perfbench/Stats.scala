package perfbench

import java.lang.management.ManagementFactory

/** Sample statistics and the JVM counters the benchmark reads. */
object Stats {

  /** Linearly interpolated quantile of a non-empty sample. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** The highest of p99.9 / p99 / p90 that has at least ten samples above it. */
  def tail(xs: Seq[Double]): Option[(String, Double)] =
    Seq("p99.9" -> 0.999, "p99" -> 0.99, "p90" -> 0.9).collectFirst {
      case (name, q) if xs.length * (1 - q) >= 10 => name -> quantile(xs, q)
    }

  /** `num / den`, or 0 when there is nothing to divide by. */
  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Runs `body` and returns its value with the elapsed nanoseconds. */
  def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, System.nanoTime() - t0)
  }
}
