package repro.ml

import scala.util.Random

/** CART decision tree, the unit of the from-scratch Random Forest substrate.
  *
  * Classification uses Gini impurity over integer labels 0..K−1 (stored as
  * doubles); regression uses variance reduction. `featureSubset` controls the
  * number of candidate features examined per split (√p for classification
  * forests, p/3 for regression forests, p for a plain tree).
  */
final class DecisionTree(
    val classification: Boolean,
    val maxDepth: Int = 7,
    val minLeaf: Int = 2,
    val featureSubset: Int => Int = p => p,
    val seed: Long = 17L,
) extends Learner {
  import DecisionTree._

  override def isClassifier: Boolean = classification

  override def fit(x: Array[Array[Double]], y: Array[Double]): Fitted = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val p       = x(0).length
    val rng     = new Random(seed)
    val indices = Array.range(0, x.length)
    val imp     = new Array[Double](p)
    val root    = build(x, y, indices, p, depth = 0, rng, imp)
    new Fitted(root, imp)
  }

  private def leafValue(y: Array[Double], idx: Array[Int]): Double =
    if (classification) {
      // Majority vote; ties broken toward the smaller label for determinism.
      val counts = scala.collection.mutable.Map.empty[Double, Int]
      idx.foreach(i => counts(y(i)) = counts.getOrElse(y(i), 0) + 1)
      counts.toSeq.maxBy { case (label, c) => (c, -label) }._1
    } else {
      var s = 0.0; idx.foreach(s += y(_)); s / idx.length
    }

  private def impurity(y: Array[Double], idx: Array[Int]): Double =
    if (classification) {
      val counts = scala.collection.mutable.Map.empty[Double, Int]
      idx.foreach(i => counts(y(i)) = counts.getOrElse(y(i), 0) + 1)
      val n = idx.length.toDouble
      1.0 - counts.valuesIterator.map { c => val f = c / n; f * f }.sum
    } else {
      val n    = idx.length.toDouble
      var s    = 0.0
      var s2   = 0.0
      idx.foreach { i => s += y(i); s2 += y(i) * y(i) }
      math.max(0.0, s2 / n - (s / n) * (s / n))
    }

  private def build(
      x: Array[Array[Double]],
      y: Array[Double],
      idx: Array[Int],
      p: Int,
      depth: Int,
      rng: Random,
      imp: Array[Double],
  ): Node = {
    if (depth >= maxDepth || idx.length < 2 * minLeaf) return Leaf(leafValue(y, idx))
    val parentImp = impurity(y, idx)
    if (parentImp < 1e-12) return Leaf(leafValue(y, idx))

    val nFeat    = math.max(1, math.min(p, featureSubset(p)))
    val features = rng.shuffle((0 until p).toList).take(nFeat)

    var bestGain   = 1e-9
    var bestFeat   = -1
    var bestThr    = 0.0
    val n          = idx.length.toDouble

    for (f <- features) {
      val sorted = idx.sortBy(i => x(i)(f))
      if (classification) {
        // Incremental class-count scan.
        val leftCounts  = scala.collection.mutable.Map.empty[Double, Int]
        val rightCounts = scala.collection.mutable.Map.empty[Double, Int]
        sorted.foreach(i => rightCounts(y(i)) = rightCounts.getOrElse(y(i), 0) + 1)
        var nl    = 0
        var giniL = 0.0
        var giniR = 0.0
        var k     = 0
        while (k < sorted.length - 1) {
          val i   = sorted(k)
          leftCounts(y(i)) = leftCounts.getOrElse(y(i), 0) + 1
          rightCounts(y(i)) = rightCounts(y(i)) - 1
          nl += 1
          val nr = sorted.length - nl
          val v0 = x(i)(f)
          val v1 = x(sorted(k + 1))(f)
          if (v1 > v0 && nl >= minLeaf && nr >= minLeaf) {
            giniL = 1.0 - leftCounts.valuesIterator.map { c => val q = c.toDouble / nl; q * q }.sum
            giniR = 1.0 - rightCounts.valuesIterator
              .map { c => val q = c.toDouble / nr; q * q }
              .sum
            val gain = parentImp - (nl / n) * giniL - (nr / n) * giniR
            if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (v0 + v1) / 2 }
          }
          k += 1
        }
      } else {
        var sl  = 0.0; var sl2 = 0.0
        var sr  = 0.0; var sr2 = 0.0
        sorted.foreach { i => sr += y(i); sr2 += y(i) * y(i) }
        var nl = 0
        var k  = 0
        while (k < sorted.length - 1) {
          val i  = sorted(k)
          sl += y(i); sl2 += y(i) * y(i)
          sr -= y(i); sr2 -= y(i) * y(i)
          nl += 1
          val nr = sorted.length - nl
          val v0 = x(i)(f)
          val v1 = x(sorted(k + 1))(f)
          if (v1 > v0 && nl >= minLeaf && nr >= minLeaf) {
            val varL = math.max(0.0, sl2 / nl - (sl / nl) * (sl / nl))
            val varR = math.max(0.0, sr2 / nr - (sr / nr) * (sr / nr))
            val gain = parentImp - (nl / n) * varL - (nr / n) * varR
            if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (v0 + v1) / 2 }
          }
          k += 1
        }
      }
    }

    if (bestFeat < 0) return Leaf(leafValue(y, idx))
    imp(bestFeat) += bestGain * idx.length
    val (li, ri) = idx.partition(i => x(i)(bestFeat) <= bestThr)
    if (li.isEmpty || ri.isEmpty) return Leaf(leafValue(y, idx))
    Split(bestFeat, bestThr, build(x, y, li, p, depth + 1, rng, imp),
      build(x, y, ri, p, depth + 1, rng, imp))
  }
}

object DecisionTree {

  private[ml] sealed trait Node extends Serializable
  private final case class Leaf(value: Double) extends Node
  private final case class Split(feature: Int, threshold: Double, left: Node, right: Node)
      extends Node

  /** A fitted tree. `importances(f)` is the impurity decrease of the splits
    * on feature f, each weighted by its node's row count.
    */
  final class Fitted private[ml] (root: Node, val importances: Array[Double]) extends Model {
    override def predict(x: Array[Double]): Double = {
      var node = root
      while (true) {
        node match {
          case Leaf(v)                 => return v
          case Split(f, thr, lt, rt)   => node = if (x(f) <= thr) lt else rt
        }
      }
      0.0 // unreachable
    }
  }
}
