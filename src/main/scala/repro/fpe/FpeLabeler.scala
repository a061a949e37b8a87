package repro.fpe

import org.apache.spark.sql.SparkSession
import repro.FanOut
import repro.core.{FeatExpr, Ops, Raw}
import repro.data.TabularData
import repro.ml.CrossVal
import scala.util.Random

/** Equ. 3 — label feature effectiveness on the public pre-training datasets.
  *
  * For dataset i with base score A₀ⁱ, feature j is labeled effective (1) iff
  * removing it costs more than `Thre`: A₀ⁱ − Aⱼⁱ > Thre.
  */
object FpeLabeler {

  /** Equ. 3's threshold `thre`, which Equ. 8's reward mapping shares. */
  val Thre: Double = 0.01

  /** One labeled training example for the Feature-Validness Task. */
  final case class LabeledFeature(
      dataset: String,
      featureIdx: Int,
      values: Array[Double],
      gain: Double, // A₀ − Aⱼ: positive ⇒ feature was pulling its weight
      label: Int,
  ) extends Serializable

  final case class Config(
      rfTrees: Int = 8,
      rfDepth: Int = 6,
      seed: Long = 5L,
  ) extends Serializable {
    val folds: Int = 3 // CV folds of every label's score
  }

  /** `nGen` random generated candidates on d, some of order 2, drawn from
    * d's own RNG stream.
    */
  private def generate(d: TabularData, cfg: Config, nGen: Int): IndexedSeq[Array[Double]] = {
    val rng  = new Random(cfg.seed ^ d.name.hashCode.toLong)
    val memo = scala.collection.mutable.Map.empty[String, Array[Double]]
    (0 until nGen).map { _ =>
      val op    = Ops.all(rng.nextInt(Ops.all.length))
      val i     = rng.nextInt(d.nFeatures)
      val j     = rng.nextInt(d.nFeatures)
      val inner = FeatExpr.derive(op, Raw(i), Raw(j))
      val e =
        if (rng.nextDouble() < 0.3) // some order-2 candidates
          FeatExpr.derive(Ops.all(rng.nextInt(Ops.all.length)), inner,
            Raw(rng.nextInt(d.nFeatures)))
        else inner
      e.evalLocal(d.columns, memo)
    }
  }

  /** The full FPE pre-training set: Equ. 3 leave-one-out labels of every raw
    * feature, then add-one-in labels of `genPerDataset` random *generated*
    * candidates per dataset (label 1 iff score(D ∪ {f}) − score(D) > Thre).
    *
    * At deployment the FPE model judges generated features, whose value
    * distributions (products, ratios, sawtooth modulos, …) never occur among
    * raw columns; the add-one-in labels close that distribution gap
    * (DESIGN.md §2).
    *
    * Every CV — each dataset's base set, its leave-one-out residuals and its
    * add-one-in sets — runs in one [[FanOut]]. Labels come in (dataset name,
    * feature index) order, leave-one-out first; dataset d's generated
    * candidates take indices p, p + 1, … after its p raw features.
    */
  def labelAllWithGenerated(
      datasets: Seq[TabularData],
      cfg: Config = Config(),
      genPerDataset: Int = 8,
      spark: Option[SparkSession] = None,
  ): Seq[LabeledFeature] = {
    val ds  = datasets.sortBy(_.name).toVector
    val gen = ds.map(generate(_, cfg, genPerDataset))
    // CV v of dataset i: the whole set (v = -1), without feature v (v < p),
    // or with generated column v − p. A one-feature dataset has no residual.
    val cvs = for {
      (d, i) <- ds.zipWithIndex
      v      <- -1 until d.nFeatures + genPerDataset
      if v != 0 || d.nFeatures > 1
    } yield (i, v)
    val score = cvs.zip(FanOut.map(spark, cvs) { case (i, v) =>
      val d = ds(i)
      val p = d.nFeatures
      CrossVal.forest(
        if (v < 0) d
        else if (v < p) d.select((0 until p).filter(_ != v))
        else d.withColumns(Seq(gen(i)(v - p))),
        cfg.rfTrees, cfg.rfDepth, cfg.folds, cfg.seed)
    }).toMap
    def label(d: TabularData, j: Int, values: Array[Double], gain: Double) =
      LabeledFeature(d.name, j, values, gain, if (gain > Thre) 1 else 0)
    val loo = for ((d, i) <- ds.zipWithIndex; j <- 0 until d.nFeatures)
      yield label(d, j, d.column(j), score((i, -1)) - score.getOrElse((i, j), 0.0))
    val added = for ((d, i) <- ds.zipWithIndex; k <- 0 until genPerDataset)
      yield label(d, d.nFeatures + k, gen(i)(k), score((i, d.nFeatures + k)) - score((i, -1)))
    loo ++ added
  }
}
