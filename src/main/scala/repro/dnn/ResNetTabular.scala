package repro.dnn

import Net._

/** RTDL-style residual MLP for tabular data — substrate for the RTDL_N,
  * FE|DL and DL|FE baselines (Table III).
  *
  * Architecture: Dense(p→H) → ReLU → ResBlock(H)×3 → head, with Adam at the
  * layers' default rate. Trained on a pre-made train split (the paper
  * stresses that this pre-splitting — rather than cross-validation — is
  * exactly why the DNN baselines collapse on tiny datasets, and our
  * reproduction keeps that protocol).
  */
final class ResNetTabular(
    val classification: Boolean,
    val hidden: Int = 96,
    val epochs: Int = 40,
    val seed: Long = 31L,
) extends Serializable {
  // Defaults mirror RTDL's regime: a large residual MLP trained for a fixed
  // budget without per-dataset tuning — on small noisy tabular data it
  // memorizes the training split, which is the collapse the paper reports.

  /** Train on (xTrain, yTrain) only. The fitted net's `predict` is the
    * end-to-end prediction (FE|DL); its `features` are the penultimate
    * (post-residual-trunk) representation that RTDL_N feeds into the Random
    * Forest and DL|FE hands to feature selection.
    */
  def train(xTrain: Array[Array[Double]], yTrain: Array[Double]): Fitted =
    Net.train(xTrain, yTrain, classification,
      p => Array[Layer](new Dense(p, hidden, seed), new ReLU) ++
        Array.tabulate[Layer](3)(b => new ResBlock(hidden, hidden, seed + 100 + b)),
      k => new Dense(hidden, k, seed + 7),
      epochs, seed)
}
