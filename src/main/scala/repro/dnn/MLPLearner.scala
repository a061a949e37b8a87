package repro.dnn

import repro.ml.Learner
import Net._

/** One-hidden-layer perceptron as a [[repro.ml.Learner]] — Table V "MLP".
  * Softmax-CE for classification, MSE on standardized targets for regression.
  */
final class MLPLearner(
    val classification: Boolean,
    val hidden: Int = 32,
    val epochs: Int = 40,
    val lr: Double = 1e-2,
    val seed: Long = 29L,
) extends Learner {

  override def isClassifier: Boolean = classification

  override def fit(x: Array[Array[Double]], y: Array[Double]): Fitted =
    Net.train(x, y, classification,
      p => Array(new Dense(p, hidden, seed, lr), new ReLU),
      k => new Dense(hidden, k, seed + 1, lr),
      epochs, seed)
}
