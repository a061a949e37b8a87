package repro.ml

import breeze.linalg.{DenseMatrix, DenseVector}

/** Gaussian-process regression (RBF kernel with a median-heuristic length
  * scale, exact solve via Breeze with noise 1e-2 on the diagonal) — Table V
  * "GP" column for regression datasets.
  *
  * Training cost is O(n³); inputs beyond `maxTrain` rows are deterministically
  * subsampled, which is ample for the ≤1.2k-row bench datasets.
  */
final class GaussianProcess(
    val maxTrain: Int = 600,
    val seed: Long = 23L,
) extends Learner {

  override def isClassifier: Boolean = false

  private final class GpModel(
      xs: Array[Array[Double]],
      alpha: DenseVector[Double],
      gamma: Double,
      yMean: Double,
      scaler: Standardizer,
  ) extends Model {
    override def predict(x: Array[Double]): Double = {
      val z = scaler(x)
      var s = yMean
      var i = 0
      while (i < xs.length) {
        var d = 0.0
        var j = 0
        while (j < z.length) { val t = z(j) - xs(i)(j); d += t * t; j += 1 }
        s += alpha(i) * math.exp(-gamma * d)
        i += 1
      }
      s
    }
  }

  override def fit(x: Array[Array[Double]], y: Array[Double]): Model = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val rng = new scala.util.Random(seed)
    val keep =
      if (x.length <= maxTrain) x.indices.toArray
      else rng.shuffle(x.indices.toList).take(maxTrain).sorted.toArray
    val p      = x(0).length
    val scaler = new Standardizer(keep.map(x))
    val xs     = keep.map(i => scaler(x(i)))
    val yMean  = keep.map(y(_)).sum / keep.length
    val yc     = DenseVector(keep.map(y(_) - yMean))

    // Median-heuristic length scale over a bounded pair sample.
    val dists = for {
      _ <- 0 until math.min(500, xs.length * (xs.length - 1) / 2 + 1)
    } yield {
      val a = xs(rng.nextInt(xs.length)); val b = xs(rng.nextInt(xs.length))
      var d = 0.0
      var j = 0
      while (j < p) { val t = a(j) - b(j); d += t * t; j += 1 }
      d
    }
    val positive = dists.filter(_ > 1e-12).sorted
    val med      = if (positive.isEmpty) 1.0 else positive(positive.length / 2)
    val gamma    = 1.0 / (2 * math.max(med, 1e-6))

    val n = xs.length
    val k = DenseMatrix.tabulate(n, n) { (i, j) =>
      var d  = 0.0
      var jj = 0
      while (jj < p) { val t = xs(i)(jj) - xs(j)(jj); d += t * t; jj += 1 }
      math.exp(-gamma * d) + (if (i == j) 1e-2 else 0.0)
    }
    val alpha = k \ yc
    new GpModel(xs, alpha, gamma, yMean, scaler)
  }
}
