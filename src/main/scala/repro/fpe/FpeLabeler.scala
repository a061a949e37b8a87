package repro.fpe

import org.apache.spark.sql.SparkSession
import repro.core.{FeatExpr, Ops, Raw}
import repro.data.TabularData
import repro.ml.{CrossVal, RandomForest}
import scala.util.Random

/** Equ. 3 — label feature effectiveness on the public pre-training datasets.
  *
  * For dataset i with base score A₀ⁱ, feature j is labeled effective (1) iff
  * removing it costs more than `thre`: A₀ⁱ − Aⱼⁱ > thre. The (dataset ×
  * feature) leave-one-out grid is embarrassingly parallel and fans out as a
  * Spark job when a session is supplied.
  */
object FpeLabeler {

  /** One labeled training example for the Feature-Validness Task. */
  final case class LabeledFeature(
      dataset: String,
      featureIdx: Int,
      values: Array[Double],
      gain: Double, // A₀ − Aⱼ: positive ⇒ feature was pulling its weight
      label: Int,
  ) extends Serializable

  final case class Config(
      thre: Double = 0.01,
      folds: Int = 3,
      rfTrees: Int = 8,
      rfDepth: Int = 6,
      seed: Long = 5L,
  ) extends Serializable

  private def cvScore(d: TabularData, cfg: Config): Double =
    CrossVal.score(
      d.x, d.y,
      new RandomForest(d.classification, cfg.rfTrees, cfg.rfDepth, seed = cfg.seed),
      cfg.folds, cfg.seed,
    )

  /** Equ. 3 label of feature j of d, whose base score is a0. */
  private def labelFeature(d: TabularData, a0: Double, j: Int, cfg: Config): LabeledFeature = {
    val residual = d.select((0 until d.nFeatures).filter(_ != j))
    val aj       = if (d.nFeatures == 1) 0.0 else cvScore(residual, cfg)
    val gain     = a0 - aj
    LabeledFeature(d.name, j, d.column(j), gain, if (gain > cfg.thre) 1 else 0)
  }

  /** Label one dataset locally. */
  def labelDataset(d: TabularData, cfg: Config): Seq[LabeledFeature] = {
    val a0 = cvScore(d, cfg)
    (0 until d.nFeatures).map(labelFeature(d, a0, _, cfg))
  }

  /** Label randomly *generated* transformation features on one dataset by
    * their add-one-in gain: label 1 iff score(D ∪ {f}) − score(D) > thre.
    *
    * The paper's Equ. 3 labels original features by leave-one-out; at
    * deployment, however, the FPE model judges *generated* features, whose
    * value distributions (products, ratios, sawtooth modulos, …) never occur
    * among raw columns. Mixing add-one-in labels over generated candidates
    * into pre-training closes that distribution gap (DESIGN.md §2).
    */
  def labelGenerated(d: TabularData, cfg: Config, nGen: Int): Seq[LabeledFeature] = {
    val rng  = new Random(cfg.seed ^ d.name.hashCode.toLong)
    val a0   = cvScore(d, cfg)
    val cols = d.columns
    val memo = scala.collection.mutable.Map.empty[String, Array[Double]]
    (0 until nGen).map { k =>
      val op    = Ops.all(rng.nextInt(Ops.all.length))
      val i     = rng.nextInt(d.nFeatures)
      val j     = rng.nextInt(d.nFeatures)
      val inner = FeatExpr.derive(op, Raw(i), Raw(j))
      val e =
        if (rng.nextDouble() < 0.3) // some order-2 candidates
          FeatExpr.derive(Ops.all(rng.nextInt(Ops.all.length)), inner,
            Raw(rng.nextInt(d.nFeatures)))
        else inner
      val f    = e.evalLocal(cols, memo)
      val gain = cvScore(d.withColumns(Seq(f)), cfg) - a0
      LabeledFeature(d.name, d.nFeatures + k, f, gain, if (gain > cfg.thre) 1 else 0)
    }
  }

  /** Label all datasets; with a SparkSession the (dataset, feature) pairs run
    * as one task each.
    */
  def labelAll(
      datasets: Seq[TabularData],
      cfg: Config = Config(),
      spark: Option[SparkSession] = None,
  ): Seq[LabeledFeature] = spark match {
    case None => datasets.flatMap(labelDataset(_, cfg))
    case Some(s) =>
      val a0 = datasets.map(d => d.name -> cvScore(d, cfg)).toMap
      val bc = s.sparkContext.broadcast((datasets.map(d => d.name -> d).toMap, a0, cfg))
      val pairs = for {
        d <- datasets
        j <- 0 until d.nFeatures
      } yield (d.name, j)
      s.sparkContext
        .parallelize(pairs, math.min(pairs.size, s.sparkContext.defaultParallelism * 2))
        .map { case (name, j) =>
          val (dm, a0m, c) = bc.value
          labelFeature(dm(name), a0m(name), j, c)
        }
        .collect()
        .toSeq
        .sortBy(lf => (lf.dataset, lf.featureIdx))
  }

  /** Equ. 3 leave-one-out labels plus add-one-in labels over generated
    * candidates — the full FPE pre-training set (both phases fan out on
    * Spark when a session is supplied).
    */
  def labelAllWithGenerated(
      datasets: Seq[TabularData],
      cfg: Config = Config(),
      genPerDataset: Int = 8,
      spark: Option[SparkSession] = None,
  ): Seq[LabeledFeature] = {
    val loo = labelAll(datasets, cfg, spark)
    val gen = spark match {
      case None => datasets.flatMap(labelGenerated(_, cfg, genPerDataset))
      case Some(s) =>
        val bc = s.sparkContext.broadcast(
          (datasets.map(d => d.name -> d).toMap, cfg, genPerDataset))
        s.sparkContext
          .parallelize(datasets.map(_.name), datasets.size)
          .flatMap { name =>
            val (dm, c, g) = bc.value
            labelGenerated(dm(name), c, g)
          }
          .collect()
          .toSeq
          .sortBy(lf => (lf.dataset, lf.featureIdx))
    }
    loo ++ gen
  }
}
