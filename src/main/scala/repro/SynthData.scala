package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The DataFrame surface of the synthetic stand-ins for the paper's target
  * datasets (DESIGN.md §2).
  */
object SynthData {

  /** A registry dataset (one of the stand-ins for the paper's 36 OpenML/UCI
    * target datasets) as a DataFrame with columns f0..f{p−1}, label.
    * Deterministic in the dataset name.
    */
  def tabular(spark: SparkSession, name: String): DataFrame =
    repro.data.DatasetRegistry.load(name).toDF(spark)

  /** A parameterized synthetic tabular dataset (classification or regression). */
  def tabular(spark: SparkSession, name: String, nSamples: Int, nFeatures: Int,
              classification: Boolean, seed: Long): DataFrame =
    repro.data.SyntheticTabular
      .generate(repro.data.SyntheticTabular.Spec(name, nSamples, nFeatures, classification, seed))
      .toDF(spark)
}
