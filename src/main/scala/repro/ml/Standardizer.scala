package repro.ml

/** Column-wise standardizer (mean 0, std 1) fitted on training rows; the one
  * used by every learner that scales its features or regression targets. A
  * constant column keeps std 1, so it maps to 0 instead of NaN.
  */
final class Standardizer(x: Array[Array[Double]]) extends Serializable {
  val p: Int = x(0).length
  val mean: Array[Double] = Array.tabulate(p)(j => x.map(_(j)).sum / x.length)
  val std: Array[Double] = Array.tabulate(p) { j =>
    val v = x.map(r => { val d = r(j) - mean(j); d * d }).sum / x.length
    val s = math.sqrt(v)
    if (s < 1e-9) 1.0 else s
  }
  def apply(row: Array[Double]): Array[Double] =
    Array.tabulate(p)(j => (row(j) - mean(j)) / std(j))
}
