package repro.ml

/** Gaussian Naive Bayes classifier — Table V "NB" column.
  * Per-class, per-feature Gaussian likelihoods with variance smoothing (1e-9
  * of the largest feature variance, at least 1e-9, as in sklearn).
  */
final class NaiveBayes extends Learner {

  override def isClassifier: Boolean = true

  private final class NbModel(
      classes: Array[Double],
      priors: Array[Double],
      means: Array[Array[Double]],
      vars: Array[Array[Double]],
  ) extends Model {
    override def predict(x: Array[Double]): Double = {
      var best      = 0
      var bestScore = Double.NegativeInfinity
      var c         = 0
      while (c < classes.length) {
        var s = math.log(priors(c))
        var j = 0
        while (j < x.length) {
          val v = vars(c)(j)
          val d = x(j) - means(c)(j)
          s += -0.5 * math.log(2 * math.Pi * v) - d * d / (2 * v)
          j += 1
        }
        if (s > bestScore) { bestScore = s; best = c }
        c += 1
      }
      classes(best)
    }
  }

  override def fit(x: Array[Array[Double]], y: Array[Double]): Model = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val p       = x(0).length
    val classes = y.distinct.sorted
    // Global max variance anchors the smoothing term, as in sklearn.
    val globalVar = (0 until p).map { j =>
      val m = x.map(_(j)).sum / x.length
      x.map(r => { val d = r(j) - m; d * d }).sum / x.length
    }.foldLeft(0.0)(math.max)
    val eps    = 1e-9 * math.max(globalVar, 1.0)
    val priors = classes.map(c => y.count(_ == c).toDouble / y.length)
    val means = classes.map { c =>
      val rows = x.indices.filter(y(_) == c).map(x)
      Array.tabulate(p)(j => rows.map(_(j)).sum / rows.length)
    }
    val vars = classes.zipWithIndex.map { case (c, ci) =>
      val rows = x.indices.filter(y(_) == c).map(x)
      Array.tabulate(p) { j =>
        val v = rows.map(r => { val d = r(j) - means(ci)(j); d * d }).sum / rows.length
        v + eps
      }
    }
    new NbModel(classes, priors, means, vars)
  }
}
