package repro.data

import repro.SparkSpec
import repro.ml.{CrossVal, RandomForest}

class TabularDataSpec extends SparkSpec {

  private def tiny = TabularData("tiny",
    Array(Array(1.0, 2.0, 3.0), Array(10.0, 20.0, 30.0)),
    Array(0.0, 1.0, 0.0), classification = true)

  /** Row i holds 10·i + j in column j and label i. */
  private def indexed(n: Int, p: Int) = TabularData("indexed",
    Array.tabulate(p)(j => Array.tabulate(n)(i => 10.0 * i + j)),
    Array.tabulate(n)(_.toDouble), classification = false)

  test("column extraction is column-major") {
    assert(tiny.column(1).toSeq === Seq(10.0, 20.0, 30.0))
  }

  test("select keeps given features in order") {
    val s = tiny.select(Seq(1))
    assert(s.nFeatures === 1)
    assert(s.column(0).toSeq === Seq(10.0, 20.0, 30.0))
  }

  test("withColumns appends and validates length") {
    val d = tiny.withColumns(Seq(Array(7.0, 8.0, 9.0)))
    assert(d.nFeatures === 3)
    assert(d.column(2).toSeq === Seq(7.0, 8.0, 9.0))
    intercept[IllegalArgumentException](tiny.withColumns(Seq(Array(1.0))))
  }

  test("subsample caps rows deterministically and keeps labels aligned") {
    val d  = SyntheticTabular.generate(
      SyntheticTabular.Spec("sub", 200, 3, classification = true, seed = 1))
    val s1 = d.subsample(50, seed = 9)
    val s2 = d.subsample(50, seed = 9)
    assert(s1.nSamples === 50)
    assert(s1.columns.map(_.toSeq).toSeq === s2.columns.map(_.toSeq).toSeq)
    assert(s1.y.toSeq === s2.y.toSeq)
    // alignment: rows of s1 exist in d with the same label
    val lookup = d.rows.map(_.toSeq).zip(d.y).toMap
    s1.rows.map(_.toSeq).zip(s1.y).foreach { case (r, l) => assert(lookup(r) === l) }
  }

  test("subsample keeps each row's values and label aligned across columns") {
    val s = indexed(40, 3).subsample(15, seed = 4)
    assert(s.nSamples === 15 && s.nFeatures === 3)
    (0 until s.nSamples).foreach { k =>
      val i = s.y(k)
      (0 until s.nFeatures).foreach(j => assert(s.column(j)(k) === 10.0 * i + j, s"row $k, column $j"))
    }
  }

  test("rows is the transpose of columns") {
    val d = indexed(5, 3)
    assert(d.rows.map(_.toSeq).toSeq === (0 until 5).map(i => (0 until 3).map(j => 10.0 * i + j)))
    assert(tiny.rows.map(_.toSeq).toSeq === Seq(Seq(1.0, 10.0), Seq(2.0, 20.0), Seq(3.0, 30.0)))
  }

  test("select of no features keeps the rows and labels") {
    val s = tiny.select(Seq.empty)
    assert(s.nFeatures === 0)
    assert(s.nSamples === 3)
    assert(s.y.toSeq === tiny.y.toSeq)
    assert(s.rows.map(_.length).toSeq === Seq(0, 0, 0))
  }

  test("subsample of a smaller dataset is identity") {
    val d = tiny
    assert(d.subsample(100, 1) eq d)
  }

  test("DataFrame round-trip preserves content") {
    val d    = SyntheticTabular.generate(
      SyntheticTabular.Spec("rt", 80, 4, classification = true, seed = 2))
    val df   = d.toDF(spark)
    assert(df.columns.toSeq === Seq("f0", "f1", "f2", "f3", "label"))
    val origRows = (0 until d.nSamples).map(i => d.columns.map(_(i)).toSeq :+ d.y(i))
    // The DataFrame is built from an ordered local collection, so collect() keeps row order.
    assert(df.collect().map(_.toSeq).toSeq === origRows)
  }

  test("mismatched x/y lengths are rejected") {
    intercept[IllegalArgumentException] {
      TabularData("bad", Array(Array(1.0)), Array(1.0, 2.0), classification = true)
    }
  }

  test("ragged columns are rejected") {
    intercept[IllegalArgumentException] {
      TabularData("ragged", Array(Array(1.0, 2.0), Array(3.0)), Array(0.0, 1.0), classification = true)
    }
  }
}

class SyntheticTabularSpec extends SparkSpec {

  test("generation is deterministic in the spec") {
    val spec = SyntheticTabular.Spec("det", 100, 6, classification = true, seed = 7)
    val a = SyntheticTabular.generate(spec)
    val b = SyntheticTabular.generate(spec)
    assert(a.columns.map(_.toSeq).toSeq === b.columns.map(_.toSeq).toSeq)
    assert(a.y.toSeq === b.y.toSeq)
  }

  test("classification labels are binary with both classes present") {
    val d = SyntheticTabular.generate(
      SyntheticTabular.Spec("bal", 300, 8, classification = true, seed = 8))
    assert(d.y.forall(v => v == 0.0 || v == 1.0))
    val pos = d.y.count(_ == 1.0)
    assert(pos > 30 && pos < 270, s"pos=$pos")
  }

  test("a quarter of classification datasets are imbalanced (75/25 cut)") {
    val balanced = SyntheticTabular.generate(
      SyntheticTabular.Spec("b1", 400, 6, classification = true, seed = 9)) // 9 % 4 != 0
    val skewed = SyntheticTabular.generate(
      SyntheticTabular.Spec("b2", 400, 6, classification = true, seed = 12)) // 12 % 4 == 0
    val posBal  = balanced.y.count(_ == 1.0) / 400.0
    val posSkew = skewed.y.count(_ == 1.0) / 400.0
    assert(math.abs(posBal - 0.5) < 0.12, s"posBal=$posBal")
    assert(posSkew < 0.4, s"posSkew=$posSkew")
  }

  test("regression targets are continuous") {
    val d = SyntheticTabular.generate(
      SyntheticTabular.Spec("reg", 200, 5, classification = false, seed = 9))
    assert(d.y.distinct.length > 50)
  }

  test("datasets are learnable above chance (informative features exist)") {
    val d = SyntheticTabular.generate(
      SyntheticTabular.Spec("learn", 400, 8, classification = true, seed = 10))
    val s = CrossVal.score(d.rows, d.y, new RandomForest(classification = true, nTrees = 10), 3, 1)
    assert(s > 0.55, s"score=$s")
  }

  test("feature-engineering headroom: a product feature helps a shallow forest") {
    // The generator's core promise (DESIGN.md §2). Verify on the aggregate:
    // over several seeds, adding pairwise products of the top features
    // improves mean CV score.
    val deltas = (0 until 3).map { k =>
      val d = SyntheticTabular.generate(
        SyntheticTabular.Spec(s"hr$k", 400, 6, classification = true, seed = 40 + k))
      val learner = new RandomForest(classification = true, nTrees = 8, maxDepth = 3)
      val base    = CrossVal.score(d.rows, d.y, learner, 3, 1)
      val prods = for (i <- 0 until 3; j <- (i + 1) until 4)
        yield Array.tabulate(d.nSamples)(r => d.column(i)(r) * d.column(j)(r))
      val aug  = d.withColumns(prods)
      val best = CrossVal.score(aug.rows, aug.y, learner, 3, 1)
      best - base
    }
    assert(deltas.sum / deltas.size > -0.02, s"deltas=$deltas")
    assert(deltas.max > 0.0, s"deltas=$deltas")
  }

  test("nuisance features have non-gaussian value distributions") {
    val d = SyntheticTabular.generate(
      SyntheticTabular.Spec("noise", 500, 12, classification = true, seed = 11))
    // At least one column should look non-centered (the FPE signal).
    val offCenter = (0 until d.nFeatures).count { j =>
      val c = d.column(j)
      math.abs(c.sum / c.length) > 1.0
    }
    assert(offCenter >= 1, s"offCenter=$offCenter")
  }
}

class DatasetRegistrySpec extends SparkSpec {

  test("registry mirrors the paper's 36 target datasets") {
    assert(DatasetRegistry.targets.size === 36)
    assert(DatasetRegistry.targets.count(_.classification) === 26)
    assert(DatasetRegistry.targets.count(!_.classification) === 10)
  }

  test("paper sample\\feature counts are recorded for key rows") {
    val pima = DatasetRegistry.byName("PimaIndian")
    assert(pima.paperSamples === 768 && pima.paperFeatures === 8)
    val higgs = DatasetRegistry.byName("Higgs Boson")
    assert(higgs.paperSamples === 50000 && higgs.paperFeatures === 28)
  }

  test("caps bound the synthetic sizes") {
    DatasetRegistry.targets.foreach { e =>
      assert(e.samples <= 1200 && e.features <= 64, e.name)
    }
    val d = DatasetRegistry.load("gisette")
    assert(d.nSamples <= 1200 && d.nFeatures <= 64)
  }

  test("load is deterministic and task type matches the registry") {
    val a = DatasetRegistry.load("sonar")
    val b = DatasetRegistry.load("sonar")
    assert(a.columns.map(_.toSeq).toSeq === b.columns.map(_.toSeq).toSeq)
    assert(a.classification)
    assert(!DatasetRegistry.load("Airfoil").classification)
  }

  test("unknown dataset names are rejected") {
    intercept[RuntimeException](DatasetRegistry.byName("nope"))
  }

  test("public pre-training sets mix tasks and vary in size") {
    val ps = DatasetRegistry.publicPretrain(10)
    assert(ps.size === 10)
    assert(ps.exists(_.classification) && ps.exists(!_.classification))
    assert(ps.map(_.nSamples).distinct.size > 3)
  }
}
