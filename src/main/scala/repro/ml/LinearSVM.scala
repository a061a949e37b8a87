package repro.ml

import scala.util.Random

/** Linear SVM trained with hinge-loss SGD; multi-class via one-vs-rest.
  * Used as a swap-in downstream task for Table V ("SVM" column).
  *
  * Features are standardized internally (mean 0, std 1) so the fixed
  * learning rate behaves across datasets of very different scales.
  */
final class LinearSVM(val seed: Long = 13L) extends Learner {
  private val epochs = 60
  private val lr     = 0.05
  private val reg    = 1e-3

  override def isClassifier: Boolean = true

  private final class SvmModel(
      ws: Array[(Double, Array[Double], Double)], // (classLabel, weights, bias)
      scaler: Standardizer,
  ) extends Model {
    override def predict(x: Array[Double]): Double = {
      val z = scaler(x)
      ws.map { case (label, w, b) =>
        var s = b
        var j = 0
        while (j < z.length) { s += w(j) * z(j); j += 1 }
        (label, s)
      }.maxBy { case (label, s) => (s, -label) }._1
    }
  }

  override def fit(x: Array[Array[Double]], y: Array[Double]): Model = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val p       = x(0).length
    val n       = x.length
    val scaler  = new Standardizer(x)
    val z       = x.map(scaler(_))
    val classes = y.distinct.sorted
    val rng     = new Random(seed)
    val models = classes.map { c =>
      val t = y.map(v => if (v == c) 1.0 else -1.0)
      val w = Array.fill(p)(0.0)
      var b = 0.0
      for (e <- 0 until epochs) {
        val order = rng.shuffle((0 until n).toList)
        val step  = lr / (1.0 + 0.1 * e)
        order.foreach { i =>
          var s = b
          var j = 0
          while (j < p) { s += w(j) * z(i)(j); j += 1 }
          if (t(i) * s < 1.0) {
            var k = 0
            while (k < p) { w(k) += step * (t(i) * z(i)(k) - reg * w(k)); k += 1 }
            b += step * t(i)
          } else {
            var k = 0
            while (k < p) { w(k) -= step * reg * w(k); k += 1 }
          }
        }
      }
      (c, w, b)
    }
    new SvmModel(models, scaler)
  }
}
