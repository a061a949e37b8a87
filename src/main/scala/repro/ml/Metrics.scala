package repro.ml

/** Evaluation metrics used throughout the paper (Section IV-A2).
  *
  * Classification is scored with `f1Paper`: the positive class's F1 (label
  * 1) for binary 0/1 problems, support-weighted one-vs-rest F1 otherwise.
  * Regression is scored with 1 − relative-absolute-error, clamped at 0,
  * which reproduces the paper's literal `0.000` entries for collapsed models.
  */
object Metrics {

  /** Accuracy = micro-F1 for single-label classification. */
  def accuracy(yTrue: Array[Double], yPred: Array[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "empty or mismatched inputs")
    var ok = 0
    var i  = 0
    while (i < yTrue.length) { if (yTrue(i) == yPred(i)) ok += 1; i += 1 }
    ok.toDouble / yTrue.length
  }

  /** Precision for one class treated as positive. */
  def precision(yTrue: Array[Double], yPred: Array[Double], pos: Double): Double = {
    var tp = 0; var fp = 0; var i = 0
    while (i < yTrue.length) {
      if (yPred(i) == pos) { if (yTrue(i) == pos) tp += 1 else fp += 1 }
      i += 1
    }
    if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
  }

  /** Recall for one class treated as positive. */
  def recall(yTrue: Array[Double], yPred: Array[Double], pos: Double): Double = {
    var tp = 0; var fn = 0; var i = 0
    while (i < yTrue.length) {
      if (yTrue(i) == pos) { if (yPred(i) == pos) tp += 1 else fn += 1 }
      i += 1
    }
    if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
  }

  /** F1 for one class treated as positive. */
  def f1(yTrue: Array[Double], yPred: Array[Double], pos: Double): Double = {
    val p = precision(yTrue, yPred, pos)
    val r = recall(yTrue, yPred, pos)
    if (p + r == 0.0) 0.0 else 2 * p * r / (p + r)
  }

  /** Support-weighted one-vs-rest F1 across all classes present in yTrue. */
  def f1Weighted(yTrue: Array[Double], yPred: Array[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "empty or mismatched inputs")
    val classes = yTrue.distinct
    val n       = yTrue.length.toDouble
    classes.map { c =>
      val support = yTrue.count(_ == c) / n
      support * f1(yTrue, yPred, c)
    }.sum
  }

  /** The paper's classification F1: positive-class F1 for binary problems
    * (this is what makes the paper's 0.000 entries possible — a collapsed
    * model that predicts only the majority class scores exactly 0), weighted
    * one-vs-rest F1 for multi-class.
    */
  def f1Paper(yTrue: Array[Double], yPred: Array[Double]): Double = {
    val classes = yTrue.distinct
    if (classes.length <= 2 && classes.forall(c => c == 0.0 || c == 1.0))
      f1(yTrue, yPred, 1.0)
    else f1Weighted(yTrue, yPred)
  }

  /** The paper's metric for a task type: `f1Paper` for classification,
    * `oneMinusRae` for regression.
    */
  def paper(classification: Boolean, yTrue: Array[Double], yPred: Array[Double]): Double =
    if (classification) f1Paper(yTrue, yPred) else oneMinusRae(yTrue, yPred)

  /** 1 − relative absolute error, clamped to [0, 1]. */
  def oneMinusRae(yTrue: Array[Double], yPred: Array[Double]): Double = {
    require(yTrue.length == yPred.length && yTrue.nonEmpty, "empty or mismatched inputs")
    val mean  = yTrue.sum / yTrue.length
    var num   = 0.0
    var denom = 0.0
    var i     = 0
    while (i < yTrue.length) {
      num += math.abs(yPred(i) - yTrue(i))
      denom += math.abs(mean - yTrue(i))
      i += 1
    }
    if (denom < 1e-12) { if (num < 1e-12) 1.0 else 0.0 }
    else math.max(0.0, math.min(1.0, 1.0 - num / denom))
  }
}
