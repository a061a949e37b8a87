package repro.ml

import repro.SparkSpec
import scala.util.Random

class DecisionTreeSpec extends SparkSpec {

  private def axisSeparable(n: Int, seed: Long): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x   = Array.fill(n)(Array(rng.nextDouble() * 10, rng.nextDouble() * 10))
    val y   = x.map(r => if (r(0) > 5.0) 1.0 else 0.0)
    (x, y)
  }

  test("classification tree fits an axis-aligned split exactly") {
    val (x, y) = axisSeparable(200, 1)
    val m      = new DecisionTree(classification = true, maxDepth = 3).fit(x, y)
    assert(Metrics.accuracy(y, x.map(m.predict)) === 1.0)
  }

  test("classification tree handles a pure-label input as a single leaf") {
    val x = Array.fill(20)(Array(1.0, 2.0))
    val y = Array.fill(20)(1.0)
    val m = new DecisionTree(classification = true).fit(x, y)
    assert(m.predict(Array(0.0, 0.0)) === 1.0)
  }

  test("maxDepth=0 yields majority-vote stump") {
    val (x, y) = axisSeparable(100, 2)
    val m      = new DecisionTree(classification = true, maxDepth = 0).fit(x, y)
    val maj    = if (y.count(_ == 1.0) * 2 >= y.length) 1.0 else 0.0
    assert(x.map(m.predict).forall(_ == maj))
  }

  test("maxDepth=0 regression tree predicts the mean of y") {
    val rng = new Random(6)
    val x   = Array.fill(50)(Array(rng.nextDouble()))
    val y   = x.map(r => 2 * r(0) + rng.nextGaussian())
    val m   = new DecisionTree(classification = false, maxDepth = 0).fit(x, y)
    assert(m.predict(Array(0.5)) === y.sum / y.length)
  }

  test("regression tree recovers a step function") {
    val x = Array.tabulate(100)(i => Array(i.toDouble))
    val y = x.map(r => if (r(0) < 50) 1.0 else 5.0)
    val m = new DecisionTree(classification = false, maxDepth = 2).fit(x, y)
    assert(math.abs(m.predict(Array(10.0)) - 1.0) < 1e-9)
    assert(math.abs(m.predict(Array(90.0)) - 5.0) < 1e-9)
  }

  test("regression tree reduces error vs constant predictor on linear data") {
    val rng = new Random(3)
    val x   = Array.fill(300)(Array(rng.nextDouble() * 4 - 2))
    val y   = x.map(r => 3 * r(0) + rng.nextGaussian() * 0.1)
    val m   = new DecisionTree(classification = false, maxDepth = 6).fit(x, y)
    val s   = Metrics.oneMinusRae(y, x.map(m.predict))
    assert(s > 0.7, s"expected strong fit, got $s")
  }

  test("AND function needs depth 2: depth-1 is imperfect, depth-2 is exact") {
    val x = Array(Array(0.0, 0.0), Array(0.0, 1.0), Array(1.0, 0.0), Array(1.0, 1.0))
    val grid = (0 until 25).flatMap(_ => x.map(_.clone())).toArray
    val y    = grid.map(r => if (r(0) > 0.5 && r(1) > 0.5) 1.0 else 0.0)
    val m1 = new DecisionTree(classification = true, maxDepth = 1).fit(grid, y)
    assert(Metrics.accuracy(y, grid.map(m1.predict)) < 1.0)
    val m2 = new DecisionTree(classification = true, maxDepth = 2).fit(grid, y)
    assert(Metrics.accuracy(y, grid.map(m2.predict)) === 1.0)
  }

  test("same seed gives identical trees, different seed may differ on subset choice") {
    val (x, y) = axisSeparable(150, 4)
    val m1 = new DecisionTree(classification = true, seed = 9,
      featureSubset = _ => 1).fit(x, y)
    val m2 = new DecisionTree(classification = true, seed = 9,
      featureSubset = _ => 1).fit(x, y)
    val probe = Array.fill(30)(Array(Random.nextDouble() * 10, Random.nextDouble() * 10))
    assert(probe.map(m1.predict).sameElements(probe.map(m2.predict)))
  }

  test("minLeaf prevents splits on tiny partitions") {
    val x = Array.tabulate(6)(i => Array(i.toDouble))
    val y = Array(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    // The minimum leaf of 2 forbids isolating the single positive; its best
    // split leaves it in the leaf {4, 5}, whose 1–1 tie goes to the smaller label.
    val m = new DecisionTree(classification = true).fit(x, y)
    assert(m.predict(Array(5.0)) === 0.0)
  }

  test("fit rejects empty input") {
    intercept[IllegalArgumentException] {
      new DecisionTree(classification = true).fit(Array.empty, Array.empty)
    }
  }

  test("importance accumulates on the split feature") {
    val (x, y) = axisSeparable(200, 5)
    val t      = new DecisionTree(classification = true, maxDepth = 3)
    val first  = t.fit(x, y).importances
    assert(first(0) > first(1))
    assert(t.fit(x, y).importances.sameElements(first))
  }
}
