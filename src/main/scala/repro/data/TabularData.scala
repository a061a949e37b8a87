package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** A small tabular dataset held locally, column-major: `columns(j)` holds
  * feature j's values, one per row, aligned with `y`.
  *
  * Features are produced as columns (operators, signatures and labels all work
  * on one column at a time), so selecting, appending and subsampling are
  * column picks. `rows` is the one transpose, for the learners, which fit on
  * rows. Nothing writes into a column once it is stored. `toDF` exposes the
  * dataset as a DataFrame for `SynthData.tabular`.
  */
final case class TabularData(
    name: String,
    columns: Array[Array[Double]],
    y: Array[Double],
    classification: Boolean,
) extends Serializable {

  require(y.nonEmpty && columns.forall(_.length == y.length), s"$name: empty or ragged data")

  def nSamples: Int  = y.length
  def nFeatures: Int = columns.length

  /** Column j (the stored array). */
  def column(j: Int): Array[Double] = columns(j)

  /** Row-major copy of the features, one array per row. */
  def rows: Array[Array[Double]] =
    Array.tabulate(nSamples) { i =>
      val row = new Array[Double](nFeatures)
      var j   = 0
      while (j < nFeatures) { row(j) = columns(j)(i); j += 1 }
      row
    }

  /** New dataset keeping only the given feature indices (order preserved). */
  def select(featureIdx: Seq[Int]): TabularData = copy(columns = featureIdx.map(columns).toArray)

  /** New dataset with extra columns appended (each of length nSamples). */
  def withColumns(extra: Seq[Array[Double]]): TabularData = copy(columns = columns ++ extra)

  /** Deterministic row subsample (no replacement) to at most `n` rows. */
  def subsample(n: Int, seed: Long): TabularData =
    if (nSamples <= n) this
    else {
      val rng  = new scala.util.Random(seed)
      val keep = rng.shuffle(y.indices.toList).take(n).sorted.toArray
      copy(columns = columns.map(c => keep.map(c)), y = keep.map(y))
    }

  /** DataFrame with columns f0..f{p−1}, label — stable ordering. */
  def toDF(spark: SparkSession): DataFrame = {
    val schema = StructType(
      (0 until nFeatures).map(j => StructField(s"f$j", DoubleType, nullable = false)) :+
        StructField("label", DoubleType, nullable = false)
    )
    val data = rows.zip(y).map { case (r, l) => Row.fromSeq(r.toSeq :+ l) }
    spark.createDataFrame(spark.sparkContext.parallelize(data.toSeq, 4), schema)
  }
}
