package repro.ml

import breeze.linalg.{DenseMatrix, DenseVector}

/** Closed-form ridge regression (standardized inputs). Stands in for the
  * linear SVR under Table V's "SVM" column on regression datasets — at these
  * dataset sizes the two are interchangeable in shape.
  */
final class RidgeRegression(val alpha: Double = 1.0) extends Learner {

  override def isClassifier: Boolean = false

  private final class RidgeModel(
      w: DenseVector[Double], b: Double, scaler: Standardizer)
      extends Model {
    override def predict(x: Array[Double]): Double = {
      val mean = scaler.mean
      val std  = scaler.std
      var s    = b
      var j    = 0
      while (j < x.length) { s += w(j) * (x(j) - mean(j)) / std(j); j += 1 }
      s
    }
  }

  override def fit(x: Array[Array[Double]], y: Array[Double]): Model = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val n      = x.length
    val p      = x(0).length
    val scaler = new Standardizer(x)
    val z = DenseMatrix.tabulate(n, p)((i, j) => (x(i)(j) - scaler.mean(j)) / scaler.std(j))
    val yMean = y.sum / n
    val yc    = DenseVector(y.map(_ - yMean))
    val a     = z.t * z + DenseMatrix.eye[Double](p) * alpha
    val w     = a \ (z.t * yc)
    new RidgeModel(w, yMean, scaler)
  }
}
