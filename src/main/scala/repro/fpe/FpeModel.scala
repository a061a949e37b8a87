package repro.fpe

import repro.hash.{HashVariant, MinHashes}
import repro.ml.Metrics
import scala.util.Random

/** The Feature Pre-Evaluation model (Section III-B): a binary classifier over
  * MinHash-compressed feature signatures, selected by Algorithm 1's grid over
  * {hash function} × {signature dimension d} maximizing validation recall
  * (Equ. 4–6), and the Equ. 7–8 reward mapping used in stage-1 training.
  */
object FpeModel {

  /** Logistic regression over a d-dim signature. `prob` is the probability
    * that the feature is EFFECTIVE (label 1).
    */
  final class Classifier(val w: Array[Double], val bias: Double) extends Serializable {
    def prob(sig: Array[Double]): Double = {
      require(sig.length == w.length, s"signature dim ${sig.length} != model dim ${w.length}")
      var z = bias
      var i = 0
      while (i < w.length) { z += w(i) * sig(i); i += 1 }
      1.0 / (1.0 + math.exp(-z))
    }
  }

  /** Cross-entropy SGD (step 0.1 / (1 + 0.05·epoch)) with the positive class
    * weighted by nNeg/nPos, at least 1 (recall is the paper's optimization
    * target — Equ. 6).
    */
  def trainClassifier(
      sigs: Array[Array[Double]],
      labels: Array[Int],
      epochs: Int = 80,
      seed: Long = 11L,
  ): Classifier = {
    require(sigs.nonEmpty && sigs.length == labels.length, "empty or mismatched training data")
    val d    = sigs(0).length
    val w    = Array.fill(d)(0.0)
    var bias = 0.0
    val nPos = labels.count(_ == 1)
    val nNeg = labels.length - nPos
    val pw   = if (nPos == 0) 1.0 else math.max(1.0, nNeg.toDouble / nPos)
    val rng  = new Random(seed)
    for (e <- 0 until epochs) {
      val step = 0.1 / (1.0 + 0.05 * e)
      rng.shuffle(sigs.indices.toList).foreach { i =>
        var z = bias
        var j = 0
        while (j < d) { z += w(j) * sigs(i)(j); j += 1 }
        val p      = 1.0 / (1.0 + math.exp(-z))
        val weight = if (labels(i) == 1) pw else 1.0
        val g      = weight * (p - labels(i))
        var k      = 0
        while (k < d) { w(k) -= step * (g * sigs(i)(k) + 1e-4 * w(k)); k += 1 }
        bias -= step * g
      }
    }
    new Classifier(w, bias)
  }

  /** A fully-trained FPE model: classifier + the winning compressor config +
    * the reward-mapping constants for Equ. 8.
    */
  final case class Trained(
      classifier: Classifier,
      variant: HashVariant,
      d: Int,
      recall: Double,
      precision: Double,
      deltaAMax: Double,
      deltaAMin: Double,
      seed: Long,
      tau: Double = 0.5,
  ) extends Serializable {
    val thre: Double = FpeLabeler.Thre

    /** P(feature effective) for a raw feature column of any length. */
    def probEffective(values: Array[Double]): Double =
      classifier.prob(MinHashes.signature(values, d, variant, seed))

    /** The paper's p (Equ. 7) — output of the binary classifier oriented so
      * low p means "positive feature" (Algorithm 2 line 6).
      */
    def p(values: Array[Double]): Double = 1.0 - probEffective(values)

    /** Equ. 8: pseudo-score Aₜʰ from the classifier output. */
    def scoreFromP(pBad: Double, aO: Double): Double =
      if (pBad < 0.5) aO + (0.5 - pBad) / 0.5 * (deltaAMax - thre)
      else aO + (0.5 - pBad) / 0.5 * (thre - deltaAMin)
  }

  /** Algorithm 1: grid over hash variants × signature dims, train on a split,
    * select by validation recall subject to Prec > 0 and Rec < 1 (Equ. 6;
    * ties and degenerate all-positive classifiers broken by precision).
    */
  def trainBest(
      labeled: Seq[FpeLabeler.LabeledFeature],
      variants: Seq[HashVariant] = Seq(HashVariant.CCWS, HashVariant.ICWS,
        HashVariant.PCWS, HashVariant.LICWS),
      dims: Seq[Int] = Seq(16, 48),
      seed: Long = 11L,
  ): Trained = {
    require(labeled.nonEmpty, "no labeled features")
    val rng      = new Random(seed)
    val shuffled = rng.shuffle(labeled.toList)
    val nVal     = math.max(1, shuffled.length / 5)
    val (valSet, trainSet) = shuffled.splitAt(nVal)
    require(trainSet.nonEmpty, "too few labeled features for a train/val split")

    val gains  = labeled.map(_.gain)
    val dAMax  = math.max(gains.max, FpeLabeler.Thre + 1e-3)
    val dAMin  = math.min(gains.min, -1e-3)

    val candidates = for {
      v <- variants
      d <- dims
    } yield {
      val trSigs = trainSet.map(lf => MinHashes.signature(lf.values, d, v, seed)).toArray
      val trLab  = trainSet.map(_.label).toArray
      val clf    = trainClassifier(trSigs, trLab, seed = seed)
      // Calibrate the decision threshold so the keep (positive) rate on the
      // training distribution is at most `targetKeep` — the paper's >0.5
      // drop rate, which is what guarantees the 2x evaluation saving.
      val targetKeep = 0.45
      val trProbs    = trSigs.map(clf.prob).sorted
      val cut        = trProbs(math.min(trProbs.length - 1,
        math.max(0, math.ceil(trProbs.length * (1 - targetKeep)).toInt - 1)))
      val tau        = math.max(0.5, cut)
      val vaPred = valSet.map(lf =>
        if (clf.prob(MinHashes.signature(lf.values, d, v, seed)) >= tau) 1.0 else 0.0)
      val vaLab  = valSet.map(_.label.toDouble)
      val rec    = Metrics.recall(vaLab.toArray, vaPred.toArray, 1.0)
      val prec   = Metrics.precision(vaLab.toArray, vaPred.toArray, 1.0)
      val allPos = vaPred.forall(_ == 1.0)
      Trained(clf, v, d, rec, prec, dAMax, dAMin, seed, tau) -> allPos
    }
    // Equ. 6 constraints: prefer non-degenerate (not all-positive) models with
    // Prec > 0; among them maximize recall, then precision.
    val eligible = candidates.collect { case (t, false) if t.precision > 0 => t }
    val pool     = if (eligible.nonEmpty) eligible else candidates.map(_._1)
    pool.maxBy(t => (t.recall, t.precision))
  }
}
