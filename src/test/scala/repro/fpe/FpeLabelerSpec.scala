package repro.fpe

import repro.SparkSpec
import repro.data.TabularData
import scala.util.Random

class FpeLabelerSpec extends SparkSpec {

  /** Dataset where f0 carries the label entirely and f1/f2 are pure noise.
    * Values are drawn row by row.
    */
  private def oneGoodFeature(seed: Long): TabularData = {
    val rng  = new Random(seed)
    val cols = Array.fill(3)(new Array[Double](240))
    for (i <- 0 until 240) {
      cols(0)(i) = rng.nextGaussian()
      cols(1)(i) = rng.nextGaussian() * 3
      cols(2)(i) = rng.nextDouble() * 10
    }
    TabularData("one-good", cols, cols(0).map(v => if (v > 0) 1.0 else 0.0), classification = true)
  }

  /** Leave-one-out labels only. */
  private def leaveOneOut(d: TabularData): Seq[FpeLabeler.LabeledFeature] =
    FpeLabeler.labelAllWithGenerated(Seq(d), FpeLabeler.Config(), genPerDataset = 0)

  /** Two datasets given in the reverse of their name order. */
  private def outOfNameOrder(seedB: Long, seedA: Long): Seq[TabularData] =
    Seq(oneGoodFeature(seedB).copy(name = "one-good-b"), oneGoodFeature(seedA).copy(name = "one-good-a"))

  /** Same labels in the same order, with bit-equal gains and values. */
  private def assertIdentical(a: Seq[FpeLabeler.LabeledFeature], b: Seq[FpeLabeler.LabeledFeature]): Unit = {
    assert(a.map(l => (l.dataset, l.featureIdx, l.label)) === b.map(l => (l.dataset, l.featureIdx, l.label)))
    a.zip(b).foreach { case (x, y) =>
      assert(x.gain.equals(y.gain), s"${x.dataset} f${x.featureIdx}: ${x.gain} vs ${y.gain}")
      assert(x.values.sameElements(y.values))
    }
  }

  test("leave-one-out labels the informative feature 1 and noise 0") {
    val d      = oneGoodFeature(1)
    val labels = leaveOneOut(d)
    assert(labels.length === 3)
    assert(labels(0).label === 1, s"informative feature gain=${labels(0).gain}")
    assert(labels(1).label === 0, s"noise feature gain=${labels(1).gain}")
    assert(labels(2).label === 0, s"noise feature gain=${labels(2).gain}")
  }

  test("gain of the informative feature is large and positive") {
    val d      = oneGoodFeature(2)
    val labels = leaveOneOut(d)
    assert(labels(0).gain > 0.2)
    assert(math.abs(labels(1).gain) < 0.15)
  }

  test("labeled values are the raw feature columns") {
    val d      = oneGoodFeature(3)
    val labels = leaveOneOut(d)
    assert(labels(2).values.sameElements(d.column(2)))
  }

  test("Spark fan-out produces identical labels to the local path") {
    val ds   = outOfNameOrder(4, 5)
    val loc  = FpeLabeler.labelAllWithGenerated(ds, FpeLabeler.Config(), genPerDataset = 0)
    val dist = FpeLabeler.labelAllWithGenerated(ds, FpeLabeler.Config(), genPerDataset = 0, Some(spark))
    assertIdentical(loc, dist)
    assert(loc.map(_.dataset).distinct === Seq("one-good-a", "one-good-b"))
  }

  test("generated-feature labels: add-one-in gains with realistic shapes") {
    val d      = oneGoodFeature(7)
    val labels = FpeLabeler.labelAllWithGenerated(Seq(d), FpeLabeler.Config(), genPerDataset = 6)
      .drop(d.nFeatures)
    assert(labels.length === 6)
    labels.foreach { l =>
      assert(l.values.length === d.nSamples)
      assert(l.featureIdx >= d.nFeatures) // generated indices follow the raw ones
      assert(l.label === (if (l.gain > 0.01) 1 else 0))
    }
  }

  test("labelAllWithGenerated concatenates both label families (Spark == local)") {
    val ds  = outOfNameOrder(8, 9)
    val loc = FpeLabeler.labelAllWithGenerated(ds, FpeLabeler.Config(), genPerDataset = 4)
    assert(loc.length === 2 * (3 + 4))
    val dist = FpeLabeler.labelAllWithGenerated(ds, FpeLabeler.Config(), genPerDataset = 4,
      spark = Some(spark))
    assertIdentical(loc, dist)
    // leave-one-out labels of both datasets first, then the generated ones
    assert(loc.map(l => (l.dataset, l.featureIdx)) ===
      Seq("one-good-a", "one-good-b").flatMap(n => (0 until 3).map(n -> _)) ++
      Seq("one-good-a", "one-good-b").flatMap(n => (3 until 7).map(n -> _)))
  }

  test("regression datasets label via 1-rae gains") {
    val rng  = new Random(6)
    val cols = Array.fill(2)(new Array[Double](240))
    for (i <- 0 until 240) { cols(0)(i) = rng.nextGaussian(); cols(1)(i) = rng.nextGaussian() }
    val y = cols(0).map(v => 5 * v + rng.nextGaussian() * 0.05)
    val d = TabularData("reg", cols, y, classification = false)
    val labels = leaveOneOut(d)
    assert(labels(0).label === 1)
    assert(labels(1).label === 0)
  }
}
