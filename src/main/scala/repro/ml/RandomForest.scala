package repro.ml

import repro.FanOut
import scala.util.Random

/** From-scratch Random Forest — the paper's downstream task 𝒯.
  *
  * Bagging over [[DecisionTree]]s with per-split random feature subsets
  * (√p for classification, p/3 for regression). Deterministic in `seed`.
  * A fit ranks each feature's values once for all its trees and hands each
  * tree its bootstrap as a row map into `x`, so no rows are copied. It draws
  * every tree's seed first and then grows the trees in parallel
  * ([[FanOut.local]]) over that shared read-only ranking; one tree is still
  * grown by one thread.
  */
final class RandomForest(
    val classification: Boolean,
    val nTrees: Int = 10,
    val maxDepth: Int = 7,
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
    val data  = new DecisionTree.Presorted(x, y, classification)
    val seeds = Seq.fill(nTrees)(rng.nextLong())
    val trees = FanOut.local(seeds) { treeSeed =>
      val bootRng = new Random(treeSeed ^ 0x9e3779b97f4a7c15L)
      val rows    = Array.fill(x.length)(bootRng.nextInt(x.length))
      new DecisionTree(classification, maxDepth, featureSubset = subset, seed = treeSeed).grow(data, rows)
    }.toArray
    // Summed in tree order, so the floating-point result does not depend on
    // which tree finished first.
    val imp = Array.fill(p)(0.0)
    trees.foreach(m => for (f <- 0 until p) imp(f) += m.importances(f))
    val total = imp.sum
    new RandomForest.Fitted(trees, data.classes, if (total > 0) imp.map(_ / total) else imp)
  }
}

object RandomForest {

  /** A fitted forest. `importances` are its trees' summed impurity decreases
    * per feature, normalized to sum 1 (all zeros when no tree split).
    */
  final class Fitted private[ml] (
      trees: Array[DecisionTree.Fitted],
      classes: Array[Double],
      val importances: Array[Double],
  ) extends Model {
    override def predict(x: Array[Double]): Double =
      if (classes.nonEmpty) {
        val votes = new Array[Int](classes.length)
        trees.foreach(m => votes(m.leaf(x).cls) += 1)
        classes(DecisionTree.majority(votes))
      } else {
        var s = 0.0
        trees.foreach(s += _.predict(x))
        s / trees.length
      }
  }
}
