package repro.dnn

import repro.ml.Learner
import Net._

/** One-hidden-layer perceptron (32 units, Adam at the layers' default rate)
  * as a [[repro.ml.Learner]] — Table V "MLP". Softmax-CE for classification,
  * MSE on standardized targets for regression.
  */
final class MLPLearner(
    val classification: Boolean,
    val epochs: Int = 40,
    val seed: Long = 29L,
) extends Learner {

  override def isClassifier: Boolean = classification

  override def fit(x: Array[Array[Double]], y: Array[Double]): Fitted =
    Net.train(x, y, classification,
      p => Array(new Dense(p, 32, seed), new ReLU),
      k => new Dense(32, k, seed + 1),
      epochs, seed)
}
