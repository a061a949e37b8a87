package repro.ml

import scala.util.Random

/** CART decision tree, the unit of the from-scratch Random Forest substrate.
  *
  * Classification uses Gini impurity over integer labels 0..K−1 (stored as
  * doubles); regression uses variance reduction. `featureSubset` controls the
  * number of candidate features examined per split (√p for classification
  * forests, p/3 for regression forests, p for a plain tree).
  *
  * A fit sorts each feature's rows once (SLIQ's attribute lists: Mehta et
  * al., EDBT 1996) by `java.lang.Double.compare` on the value, then by row
  * position: a counting sort on the value's rank, which [[Presorted]]
  * computes once for all trees of a forest. A split stable-partitions every
  * list, so each node sees its rows in that order without sorting again.
  * Class counts are `Array[Int]`s indexed by the label's rank among the
  * distinct labels.
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
    grow(new Presorted(x, y, classification), Array.range(0, x.length))
  }

  /** Fits on `rows`, a row map into `data` (a bootstrap: rows may repeat).
    * Position k of the tree's training set is `data`'s row `rows(k)`.
    */
  private[ml] def grow(data: Presorted, rows: Array[Int]): Fitted = {
    val g = new Grower(data, rows)
    new Fitted(g.build(0, rows.length, depth = 0), g.imp)
  }

  /** The state of one fit. `order(f)` holds the positions sorted by feature f
    * (ties by position); `order(p)` holds them in position order. A node owns
    * the range [lo, hi) of every list.
    */
  private final class Grower(data: Presorted, rows: Array[Int]) {
    private val n      = rows.length
    private val p      = data.p
    private val rng    = new Random(seed)
    val imp            = new Array[Double](p)
    private val yv     = rows.map(data.y)
    private val label  = if (classification) rows.map(data.label) else null
    private val k      = data.classes.length
    private val left   = new Array[Int](k)
    private val right  = new Array[Int](k)
    private val goLeft = new Array[Boolean](n)
    private val buf    = new Array[Int](n)
    private val perm   = new Array[Int](p)
    private val order  = {
      val start = new Array[Int](data.y.length + 1)
      Array.tabulate(p + 1) { f =>
        if (f == p) Array.range(0, n)
        else {
          // Counting sort by rank; positions ascend within a rank.
          val rank = data.ranks(f)
          val out  = new Array[Int](n)
          java.util.Arrays.fill(start, 0)
          var i = 0
          while (i < n) { start(rank(rows(i)) + 1) += 1; i += 1 }
          i = 1
          while (i < start.length) { start(i) += start(i - 1); i += 1 }
          i = 0
          while (i < n) { val r = rank(rows(i)); out(start(r)) = i; start(r) += 1; i += 1 }
          out
        }
      }
    }

    /** The first `nFeat` of a fresh shuffle of 0 until p, drawn exactly as
      * `scala.util.Random.shuffle` draws: for i from p down to 2, swap
      * i − 1 with `nextInt(i)`.
      */
    private def features(nFeat: Int): Array[Int] = {
      var i = 0
      while (i < p) { perm(i) = i; i += 1 }
      i = p
      while (i >= 2) {
        val j = rng.nextInt(i)
        val t = perm(i - 1); perm(i - 1) = perm(j); perm(j) = t
        i -= 1
      }
      java.util.Arrays.copyOf(perm, nFeat)
    }

    /** Counts the node's labels into `counts`. */
    private def count(lo: Int, hi: Int, counts: Array[Int]): Unit = {
      java.util.Arrays.fill(counts, 0)
      var i = lo
      while (i < hi) { counts(label(order(p)(i))) += 1; i += 1 }
    }

    /** Σ (count/total)² over labels in ascending order; the order of the
      * additions is part of the result.
      */
    private def sumSquares(counts: Array[Int], total: Double): Double = {
      var s = 0.0
      var c = 0
      while (c < k) { val q = counts(c) / total; s += q * q; c += 1 }
      s
    }

    private def leaf(lo: Int, hi: Int): Leaf =
      if (classification) {
        count(lo, hi, left)
        val best = majority(left)
        Leaf(data.classes(best), best)
      } else {
        var s = 0.0
        var i = lo
        while (i < hi) { s += yv(order(p)(i)); i += 1 }
        Leaf(s / (hi - lo), -1)
      }

    private def impurity(lo: Int, hi: Int): Double = {
      val m = (hi - lo).toDouble
      if (classification) {
        count(lo, hi, left)
        1.0 - sumSquares(left, m)
      } else {
        var s  = 0.0
        var s2 = 0.0
        var i  = lo
        while (i < hi) { val v = yv(order(p)(i)); s += v; s2 += v * v; i += 1 }
        math.max(0.0, s2 / m - (s / m) * (s / m))
      }
    }

    def build(lo: Int, hi: Int, depth: Int): Node = {
      val m = hi - lo
      if (depth >= maxDepth || m < 2 * minLeaf) return leaf(lo, hi)
      val parentImp = impurity(lo, hi)
      if (parentImp < 1e-12) return leaf(lo, hi)

      val nFeat = math.max(1, math.min(p, featureSubset(p)))

      var bestGain = 1e-9
      var bestFeat = -1
      var bestThr  = 0.0
      val nd       = m.toDouble

      for (f <- features(nFeat)) {
        val sorted = order(f)
        val col    = data.cols(f)
        if (classification) {
          // Incremental class-count scan.
          java.util.Arrays.fill(left, 0)
          count(lo, hi, right)
          var nl = 0
          var i  = lo
          while (i < hi - 1) {
            val c = label(sorted(i))
            left(c) += 1
            right(c) -= 1
            nl += 1
            val nr = m - nl
            val v0 = col(rows(sorted(i)))
            val v1 = col(rows(sorted(i + 1)))
            if (v1 > v0 && nl >= minLeaf && nr >= minLeaf) {
              val giniL = 1.0 - sumSquares(left, nl)
              val giniR = 1.0 - sumSquares(right, nr)
              val gain  = parentImp - (nl / nd) * giniL - (nr / nd) * giniR
              if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (v0 + v1) / 2 }
            }
            i += 1
          }
        } else {
          var sl = 0.0; var sl2 = 0.0
          var sr = 0.0; var sr2 = 0.0
          var i  = lo
          while (i < hi) { val v = yv(sorted(i)); sr += v; sr2 += v * v; i += 1 }
          var nl = 0
          i = lo
          while (i < hi - 1) {
            val v = yv(sorted(i))
            sl += v; sl2 += v * v
            sr -= v; sr2 -= v * v
            nl += 1
            val nr = m - nl
            val v0 = col(rows(sorted(i)))
            val v1 = col(rows(sorted(i + 1)))
            if (v1 > v0 && nl >= minLeaf && nr >= minLeaf) {
              val varL = math.max(0.0, sl2 / nl - (sl / nl) * (sl / nl))
              val varR = math.max(0.0, sr2 / nr - (sr / nr) * (sr / nr))
              val gain = parentImp - (nl / nd) * varL - (nr / nd) * varR
              if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (v0 + v1) / 2 }
            }
            i += 1
          }
        }
      }

      if (bestFeat < 0) return leaf(lo, hi)
      imp(bestFeat) += bestGain * m
      // The split follows the predicate, not the scan's prefix: a midpoint
      // can round onto v1 or be NaN (−Inf with +Inf).
      val col   = data.cols(bestFeat)
      var nLeft = 0
      var i     = lo
      while (i < hi) {
        val pos = order(p)(i)
        goLeft(pos) = col(rows(pos)) <= bestThr
        if (goLeft(pos)) nLeft += 1
        i += 1
      }
      if (nLeft == 0 || nLeft == m) return leaf(lo, hi)
      order.foreach(partition(_, lo, hi))
      Split(bestFeat, bestThr, build(lo, lo + nLeft, depth + 1), build(lo + nLeft, hi, depth + 1))
    }

    /** Stable partition of `a`'s range [lo, hi) by `goLeft`. */
    private def partition(a: Array[Int], lo: Int, hi: Int): Unit = {
      var l = lo
      var r = 0
      var i = lo
      while (i < hi) {
        val pos = a(i)
        if (goLeft(pos)) { a(l) = pos; l += 1 } else { buf(r) = pos; r += 1 }
        i += 1
      }
      System.arraycopy(buf, 0, a, l, r)
    }
  }
}

object DecisionTree {

  /** What every tree of one fit shares, computed once: the columns, each
    * value's dense rank in its column by `java.lang.Double.compare` (so
    * −0.0 < 0.0 and NaN ranks last), and for classification the distinct
    * labels in ascending order and each row's index into them.
    */
  private[ml] final class Presorted(x: Array[Array[Double]], val y: Array[Double], classification: Boolean) {
    val p: Int                     = x(0).length
    val cols: Array[Array[Double]] = Array.tabulate(p)(f => x.map(_(f)))
    val ranks: Array[Array[Int]]   = cols.map(denseRanks)
    val classes: Array[Double]     = if (classification) distinctSorted(y) else Array.empty
    val label: Array[Int] =
      if (classification) y.map(java.util.Arrays.binarySearch(classes, _)) else Array.empty
  }

  /** The majority class of `counts` over the ascending labels; ties go to
    * the smaller label, so the vote is deterministic.
    */
  private[ml] def majority(counts: Array[Int]): Int = {
    var best = 0
    var c    = 1
    while (c < counts.length) { if (counts(c) > counts(best)) best = c; c += 1 }
    best
  }

  private def distinctSorted(v: Array[Double]): Array[Double] = {
    val s = v.clone()
    java.util.Arrays.sort(s)
    var u = 0
    var i = 0
    while (i < s.length) {
      if (u == 0 || java.lang.Double.compare(s(u - 1), s(i)) != 0) { s(u) = s(i); u += 1 }
      i += 1
    }
    java.util.Arrays.copyOf(s, u)
  }

  private def denseRanks(col: Array[Double]): Array[Int] = {
    val values = distinctSorted(col)
    col.map(java.util.Arrays.binarySearch(values, _))
  }

  private[ml] sealed trait Node extends Serializable
  /** `cls` is the label's index in its fit's ascending labels (−1 for regression). */
  private[ml] final case class Leaf(value: Double, cls: Int) extends Node
  private final case class Split(feature: Int, threshold: Double, left: Node, right: Node)
      extends Node

  /** A fitted tree. `importances(f)` is the impurity decrease of the splits
    * on feature f, each weighted by its node's row count.
    */
  final class Fitted private[ml] (root: Node, val importances: Array[Double]) extends Model {
    private[ml] def leaf(x: Array[Double]): Leaf = walk(root, x)

    @annotation.tailrec
    private def walk(node: Node, x: Array[Double]): Leaf = node match {
      case l: Leaf               => l
      case Split(f, thr, lt, rt) => walk(if (x(f) <= thr) lt else rt, x)
    }

    override def predict(x: Array[Double]): Double = leaf(x).value
  }
}
