package repro.ml

/** A fitted model: maps a feature row to a prediction (class label as a
  * double for classifiers, a real value for regressors).
  */
trait Model extends Serializable {
  def predict(x: Array[Double]): Double
  def predictAll(xs: Array[Array[Double]]): Array[Double] = xs.map(predict)
}

/** A learning algorithm. All learners in this repo are deterministic in
  * their seed so Spark-parallel and sequential evaluation agree exactly.
  * `fit` keeps no state on the learner: everything a fit learns is in the
  * model it returns, so one learner can be shared across fits and threads.
  */
trait Learner extends Serializable {
  def isClassifier: Boolean
  def fit(x: Array[Array[Double]], y: Array[Double]): Model

  /** The paper's metric for this task type: F1 (positive-class for binary)
    * or 1−RAE.
    */
  def metric(yTrue: Array[Double], yPred: Array[Double]): Double =
    Metrics.paper(isClassifier, yTrue, yPred)
}
