package repro.ml

import scala.util.Random

/** From-scratch Random Forest — the paper's downstream task 𝒯.
  *
  * Bagging over [[DecisionTree]]s with per-split random feature subsets
  * (√p for classification, p/3 for regression). Deterministic in `seed`.
  */
final class RandomForest(
    val classification: Boolean,
    val nTrees: Int = 10,
    val maxDepth: Int = 7,
    val minLeaf: Int = 2,
    val seed: Long = 42L,
) extends Learner {

  override def isClassifier: Boolean = classification

  override def fit(x: Array[Array[Double]], y: Array[Double]): RandomForest.Fitted = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val p   = x(0).length
    val rng = new Random(seed)
    val subset: Int => Int =
      if (classification) q => math.max(1, math.ceil(math.sqrt(q)).toInt)
      else q => math.max(1, q / 3)
    val imp = Array.fill(p)(0.0)
    val trees = Array.tabulate(nTrees) { t =>
      val treeSeed = rng.nextLong()
      val bootRng  = new Random(treeSeed ^ 0x9e3779b97f4a7c15L)
      val bootIdx  = Array.fill(x.length)(bootRng.nextInt(x.length))
      val bx       = bootIdx.map(x)
      val by       = bootIdx.map(y)
      val m        = new DecisionTree(classification, maxDepth, minLeaf, subset, treeSeed).fit(bx, by)
      for (f <- 0 until p) imp(f) += m.importances(f)
      m
    }
    val total = imp.sum
    new RandomForest.Fitted(trees, classification, if (total > 0) imp.map(_ / total) else imp)
  }
}

object RandomForest {

  /** A fitted forest. `importances` are its trees' summed impurity decreases
    * per feature, normalized to sum 1 (all zeros when no tree split).
    */
  final class Fitted private[ml] (
      trees: Array[DecisionTree.Fitted],
      classification: Boolean,
      val importances: Array[Double],
  ) extends Model {
    override def predict(x: Array[Double]): Double =
      if (classification) {
        val votes = scala.collection.mutable.Map.empty[Double, Int]
        trees.foreach { m =>
          val v = m.predict(x)
          votes(v) = votes.getOrElse(v, 0) + 1
        }
        votes.toSeq.maxBy { case (label, c) => (c, -label) }._1
      } else {
        var s = 0.0
        trees.foreach(s += _.predict(x))
        s / trees.length
      }
  }
}
