package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** A small tabular dataset held locally (row-major).
  *
  * The downstream learners fit on this local form (a single candidate
  * evaluation is milliseconds); features are produced as columns and turned
  * into rows by `TabularData.rows`. `toDF` exposes it as a DataFrame for
  * `SynthData.tabular`.
  */
final case class TabularData(
    name: String,
    x: Array[Array[Double]],
    y: Array[Double],
    classification: Boolean,
) extends Serializable {

  require(x.nonEmpty && x.length == y.length, s"$name: empty or mismatched data")

  def nSamples: Int  = x.length
  def nFeatures: Int = x(0).length

  /** Column j as an array (copied). */
  def column(j: Int): Array[Double] = {
    val out = new Array[Double](nSamples)
    var i   = 0
    while (i < nSamples) { out(i) = x(i)(j); i += 1 }
    out
  }

  def columns: Array[Array[Double]] = Array.tabulate(nFeatures)(column)

  /** New dataset keeping only the given feature indices (order preserved). */
  def select(featureIdx: Seq[Int]): TabularData =
    copy(x = x.map(row => featureIdx.map(row).toArray))

  /** New dataset with extra columns appended (each of length nSamples). */
  def withColumns(extra: Seq[Array[Double]]): TabularData = {
    extra.foreach(c => require(c.length == nSamples, "appended column length mismatch"))
    copy(x = TabularData.rows(columns ++ extra))
  }

  /** Deterministic row subsample (no replacement) to at most `n` rows. */
  def subsample(n: Int, seed: Long): TabularData =
    if (nSamples <= n) this
    else {
      val rng  = new scala.util.Random(seed)
      val keep = rng.shuffle(x.indices.toList).take(n).sorted
      copy(x = keep.map(x).toArray, y = keep.map(y).toArray)
    }

  /** DataFrame with columns f0..f{p−1}, label — stable ordering. */
  def toDF(spark: SparkSession): DataFrame = {
    val schema = StructType(
      (0 until nFeatures).map(j => StructField(s"f$j", DoubleType, nullable = false)) :+
        StructField("label", DoubleType, nullable = false)
    )
    val rows = x.indices.map(i => Row.fromSeq(x(i).toSeq :+ y(i)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 4), schema)
  }
}

object TabularData {

  /** Row-major copy of equal-length feature columns (at least one). */
  def rows(cols: Array[Array[Double]]): Array[Array[Double]] =
    Array.tabulate(cols(0).length) { i =>
      val row = new Array[Double](cols.length)
      var j   = 0
      while (j < cols.length) { row(j) = cols(j)(i); j += 1 }
      row
    }
}
