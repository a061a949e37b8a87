package repro.fpe

import repro.SparkSpec
import repro.data.DatasetRegistry
import repro.hash.HashVariant
import scala.util.Random

class FpeModelSpec extends SparkSpec {

  private val rng = new Random(9)

  test("logistic classifier separates linearly separable signatures") {
    val sigs   = Array.fill(200)(Array.fill(8)(rng.nextGaussian()))
    val labels = sigs.map(s => if (s.sum > 0) 1 else 0)
    val clf    = FpeModel.trainClassifier(sigs, labels, epochs = 60)
    val acc = sigs.zip(labels).count { case (s, l) =>
      (clf.prob(s) >= 0.5) == (l == 1)
    }.toDouble / sigs.length
    assert(acc > 0.9, s"acc=$acc")
  }

  test("positive-class weighting pushes recall up on imbalanced data") {
    // 10% positives, weak signal: the recall-weighted model must catch most.
    val sigs = Array.fill(400)(Array.fill(6)(rng.nextGaussian()))
    val labels = sigs.map(s => if (s(0) + rng.nextGaussian() * 0.5 > 1.2) 1 else 0)
    val clf  = FpeModel.trainClassifier(sigs, labels, epochs = 60)
    val pos  = sigs.zip(labels).filter(_._2 == 1)
    val rec  = pos.count { case (s, _) => clf.prob(s) >= 0.5 }.toDouble / math.max(1, pos.length)
    assert(rec > 0.6, s"recall=$rec")
  }

  test("classifier probability is monotone in the logit direction") {
    val clf = new FpeModel.Classifier(Array(1.0, 0.0), 0.0)
    assert(clf.prob(Array(2.0, 0.0)) > clf.prob(Array(1.0, 0.0)))
    assert(math.abs(clf.prob(Array(0.0, 5.0)) - 0.5) < 1e-12)
  }

  test("classifier rejects signature dimension mismatch") {
    val clf = new FpeModel.Classifier(Array(1.0, 1.0), 0.0)
    intercept[IllegalArgumentException](clf.prob(Array(1.0)))
  }

  test("trainBest runs Algorithm 1's grid and returns the recall maximizer") {
    val labeled = FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(6),
      FpeLabeler.Config(rfTrees = 5, rfDepth = 5), genPerDataset = 0)
    val trained = FpeModel.trainBest(labeled, dims = Seq(8, 16), seed = 2)
    assert(Seq(8, 16).contains(trained.d))
    assert(trained.recall >= 0.0 && trained.recall <= 1.0)
    assert(trained.deltaAMax > trained.thre)
    assert(trained.deltaAMin < 0)
  }

  test("trained model pre-evaluates arbitrary-length features") {
    val labeled = FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(4),
      FpeLabeler.Config(rfTrees = 5, rfDepth = 5), genPerDataset = 0)
    val trained = FpeModel.trainBest(labeled, variants = Seq(HashVariant.CCWS),
      dims = Seq(8), seed = 3)
    val short = Array.fill(30)(rng.nextGaussian())
    val long  = Array.fill(900)(rng.nextGaussian())
    Seq(short, long).foreach { f =>
      val p = trained.probEffective(f)
      assert(p >= 0 && p <= 1)
      assert(trained.p(f) === 1.0 - p) // Equ. 7 orientation
      assert(trained.tau >= 0.5)      // calibrated for a >0.5 drop rate
    }
  }

  test("Equ. 8 reward mapping: confident-good features score above A^O") {
    val t = FpeModel.Trained(new FpeModel.Classifier(Array(0.0), 0.0),
      HashVariant.CCWS, 1, recall = 1, precision = 1,
      deltaAMax = 0.2, deltaAMin = -0.15, seed = 1)
    val aO = 0.7
    assert(t.scoreFromP(0.0, aO) === aO + (0.2 - 0.01))   // p=0 → max boost
    assert(t.scoreFromP(0.5, aO) === aO)                  // boundary → no change
    assert(t.scoreFromP(1.0, aO) === aO - (0.01 + 0.15))  // p=1 → max penalty
  }

  test("Equ. 8 is monotonically decreasing in p") {
    val t = FpeModel.Trained(new FpeModel.Classifier(Array(0.0), 0.0),
      HashVariant.CCWS, 1, recall = 1, precision = 1,
      deltaAMax = 0.2, deltaAMin = -0.15, seed = 1)
    val ps = Seq(0.0, 0.2, 0.4, 0.49, 0.5, 0.6, 0.8, 1.0)
    val scores = ps.map(t.scoreFromP(_, 0.5))
    scores.sliding(2).foreach { case Seq(a, b) => assert(a >= b, s"$scores") }
  }

  test("trainBest rejects an empty labeled set") {
    intercept[IllegalArgumentException](FpeModel.trainBest(Seq.empty))
  }
}
