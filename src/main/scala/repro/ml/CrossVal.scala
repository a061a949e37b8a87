package repro.ml

import repro.data.TabularData
import scala.util.Random

/** Seeded k-fold cross-validation returning the learner's paper metric
  * ([[Metrics.f1Paper]] for classification: F1 of label 1 when a test
  * fold's labels are within {0, 1}, support-weighted F1 otherwise; 1−RAE
  * for regression).
  *
  * Classification folds are stratified (round-robin within each class) so
  * tiny datasets do not produce single-class training folds.
  */
object CrossVal {

  def folds(y: Array[Double], k: Int, stratified: Boolean, seed: Long): Array[Array[Int]] = {
    require(k >= 2, s"need k >= 2 folds, got $k")
    val rng = new Random(seed)
    val assignment = Array.fill(y.length)(0)
    if (stratified) {
      y.zipWithIndex.groupBy(_._1).toSeq.sortBy(_._1).foreach { case (_, members) =>
        val shuffled = rng.shuffle(members.map(_._2).toList)
        shuffled.zipWithIndex.foreach { case (i, pos) => assignment(i) = pos % k }
      }
    } else {
      val shuffled = rng.shuffle(y.indices.toList)
      shuffled.zipWithIndex.foreach { case (i, pos) => assignment(i) = pos % k }
    }
    Array.tabulate(k)(f => y.indices.filter(assignment(_) == f).toArray)
  }

  /** Mean metric over k folds. Folds that end up with an empty train or test
    * partition (possible on degenerate tiny inputs) are skipped.
    */
  def score(
      x: Array[Array[Double]],
      y: Array[Double],
      learner: Learner,
      k: Int = 3,
      seed: Long = 7L,
  ): Double = {
    require(x.length == y.length && x.nonEmpty, "empty or mismatched data")
    val kk = math.min(k, x.length)
    if (kk < 2) return 0.0
    val fs     = folds(y, kk, learner.isClassifier, seed)
    var total  = 0.0
    var nFolds = 0
    val inTest = new Array[Boolean](x.length)
    fs.foreach { testIdx =>
      if (testIdx.nonEmpty && testIdx.length < x.length) {
        java.util.Arrays.fill(inTest, false)
        testIdx.foreach(inTest(_) = true)
        val trainIdx = x.indices.filterNot(inTest(_)).toArray
        val model    = learner.fit(trainIdx.map(x), trainIdx.map(y))
        val preds    = testIdx.map(i => model.predict(x(i)))
        total += learner.metric(testIdx.map(y), preds)
        nFolds += 1
      }
    }
    if (nFolds == 0) 0.0 else total / nFolds
  }

  /** k-fold score of a Random Forest (`trees` trees of depth `depth`, seeded
    * like the folds) on `d`'s rows: the downstream evaluation that scores the
    * Engine's feature sets and labels the FPE's pre-training features.
    */
  def forest(d: TabularData, trees: Int, depth: Int, k: Int, seed: Long): Double =
    score(d.rows, d.y, new RandomForest(d.classification, trees, depth, seed = seed), k, seed)
}
