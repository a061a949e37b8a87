package repro.ml

import repro.SparkSpec
import scala.util.Random

class RandomForestSpec extends SparkSpec {

  private def blobs(n: Int, seed: Long): (Array[Array[Double]], Array[Double]) = {
    val rng = new Random(seed)
    val x = Array.fill(n) {
      val c = rng.nextInt(2)
      Array(c * 4.0 + rng.nextGaussian(), c * 4.0 + rng.nextGaussian())
    }
    val y = x.map(r => if (r(0) + r(1) > 4.0) 1.0 else 0.0)
    (x, y)
  }

  test("forest separates gaussian blobs with high accuracy") {
    val (x, y) = blobs(300, 11)
    val m      = new RandomForest(classification = true, nTrees = 10).fit(x, y)
    assert(Metrics.accuracy(y, x.map(m.predict)) > 0.95)
  }

  test("forest is deterministic in its seed") {
    val (x, y) = blobs(200, 12)
    val p1 = new RandomForest(classification = true, seed = 5).fit(x, y).predictAll(x)
    val p2 = new RandomForest(classification = true, seed = 5).fit(x, y).predictAll(x)
    assert(p1.sameElements(p2))
  }

  test("regression forest fits a smooth function") {
    val rng = new Random(13)
    val x   = Array.fill(400)(Array(rng.nextDouble() * 6 - 3))
    val y   = x.map(r => math.sin(r(0)) + rng.nextGaussian() * 0.05)
    val m   = new RandomForest(classification = false, nTrees = 15, maxDepth = 8).fit(x, y)
    assert(Metrics.oneMinusRae(y, x.map(m.predict)) > 0.75)
  }

  test("feature importances rank the informative feature first") {
    val rng = new Random(14)
    val x   = Array.fill(300)(Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian()))
    val y   = x.map(r => if (r(1) > 0) 1.0 else 0.0)
    val imp = new RandomForest(classification = true, nTrees = 10).fit(x, y).importances
    assert(imp(1) > imp(0) && imp(1) > imp(2), imp.mkString(","))
  }

  test("feature importances are normalized to sum 1") {
    val (x, y) = blobs(150, 15)
    val imp    = new RandomForest(classification = true, nTrees = 6).fit(x, y).importances
    assert(math.abs(imp.sum - 1.0) < 1e-9)
  }

  test("one forest fit on two datasets returns each fit's own importances") {
    val (x1, y1) = blobs(150, 18)
    val rng      = new Random(19)
    val x2       = Array.fill(150)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y2       = x2.map(r => if (r(1) > 0) 1.0 else 0.0)
    val shared   = new RandomForest(classification = true, nTrees = 6, seed = 3)
    val m1       = shared.fit(x1, y1)
    val m2       = shared.fit(x2, y2)
    def fresh    = new RandomForest(classification = true, nTrees = 6, seed = 3)
    assert(m1.importances.sameElements(fresh.fit(x1, y1).importances))
    assert(m2.importances.sameElements(fresh.fit(x2, y2).importances))
    assert(!m1.importances.sameElements(m2.importances))
  }

  test("forest improves on interaction targets when given the product feature") {
    // The synthetic-generator premise: products help an axis-aligned forest.
    val rng = new Random(16)
    val x   = Array.fill(400)(Array(rng.nextGaussian(), rng.nextGaussian()))
    val y   = x.map(r => if (r(0) * r(1) > 0) 1.0 else 0.0)
    val shallow = new RandomForest(classification = true, nTrees = 8, maxDepth = 2)
    val sRaw = CrossVal.score(x, y, shallow, 3, 1)
    val xAug = x.map(r => r :+ r(0) * r(1))
    val sAug = CrossVal.score(xAug, y, shallow, 3, 1)
    assert(sAug > sRaw + 0.05, s"raw=$sRaw aug=$sAug")
  }

  test("multiclass majority vote returns a valid class") {
    val rng = new Random(17)
    val x   = Array.fill(150)(Array(rng.nextGaussian() * 3))
    val y   = x.map(r => math.max(0, math.min(2, math.floor(r(0) + 1.5))).toDouble)
    val m   = new RandomForest(classification = true, nTrees = 5).fit(x, y)
    assert(x.map(m.predict).forall(Set(0.0, 1.0, 2.0)))
  }

  test("fit rejects mismatched lengths") {
    intercept[IllegalArgumentException] {
      new RandomForest(classification = true).fit(Array(Array(1.0)), Array(1.0, 2.0))
    }
  }
}
