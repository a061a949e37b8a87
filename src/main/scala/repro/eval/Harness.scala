package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.{DatasetRegistry, TabularData}
import repro.dnn.{MLPLearner, ResNetTabular}
import repro.fpe.FpeModel
import repro.ml._
import scala.collection.mutable
import scala.util.Random

/** Runs one (dataset, method) experiment and produces a [[RunResult]].
  *
  * Dataset preparation mirrors the paper: "E-AFE first conducts feature
  * selection of less than maximum features according to the feature
  * importance via RF on the raw target datasets" — we fit a forest on the
  * raw dataset and keep the top-`maxBaseFeatures` features by importance.
  */
object Harness {

  val MaxBaseFeatures = 16

  /** Cached prepared datasets (preparation is deterministic). */
  private val prepCache = mutable.Map.empty[String, TabularData]

  def prepare(name: String): TabularData = prepCache.synchronized {
    prepCache.getOrElseUpdate(name, {
      val raw = DatasetRegistry.load(name)
      if (raw.nFeatures <= MaxBaseFeatures) raw
      else {
        val sub = raw.subsample(700, seed = 3L)
        val rf  = new RandomForest(raw.classification, nTrees = 12, maxDepth = 6, seed = 3L)
        val top = rf.fit(sub.rows, sub.y).importances.zipWithIndex
          .sortBy { case (imp, idx) => (-imp, idx) }
          .take(MaxBaseFeatures)
          .map(_._2)
          .sorted
        raw.select(top.toIndexedSeq)
      }
    })
  }

  /** RL-substrate methods (Table III columns FS_R, NFS, E-AFE_R, E-AFE_D and
    * the four E-AFE hash variants).
    */
  def runRl(
      name: String,
      cfg: MethodConfig,
      fpe: Option[FpeModel.Trained],
      spark: Option[SparkSession],
  ): RunResult = new Engine(prepare(name), cfg, fpe, spark).run()

  // --- DL baselines (RTDL_N, FE|DL, DL|FE) ---------------------------------

  private def split(d: TabularData, seed: Long): (Array[Int], Array[Int], Array[Int]) = {
    val rng     = new Random(seed)
    val idx     = rng.shuffle(d.y.indices.toList).toArray
    val nTrain  = math.max(1, (idx.length * 0.6).toInt)
    val nVal    = math.max(1, (idx.length * 0.2).toInt)
    val train   = idx.take(nTrain)
    val valSet  = idx.slice(nTrain, nTrain + nVal)
    val test    = idx.drop(nTrain + nVal)
    (train, valSet, if (test.isEmpty) valSet else test)
  }

  /** DL baselines consume the RAW dataset (up to 64 features, no RF-importance
    * pre-selection) — the paper's RTDL_N runs on the raw target datasets,
    * which is exactly why it collapses in p≫n regimes like secom.
    */
  private def rawFor(name: String): TabularData = DatasetRegistry.load(name)

  /** `d`'s rows with the programs `keys` as their features (`d` itself when
    * there are none): a run's selected features, re-materialized from its
    * cached keys.
    */
  private[eval] def programs(d: TabularData, keys: Seq[String]): TabularData =
    if (keys.isEmpty) d
    else {
      val memo = mutable.Map.empty[String, Array[Double]]
      d.copy(columns = keys.map(FeatExpr.parse(_).evalLocal(d.columns, memo)).toArray)
    }

  /** RTDL_N: train the tabular ResNet on a pre-made split, swap the softmax
    * head for a Random Forest over the penultimate features, score on test.
    */
  def runDlN(name: String, seed: Long = 1L): RunResult = {
    val t0 = System.nanoTime()
    val d  = rawFor(name)
    val x  = d.rows
    val (train, _, test) = split(d, seed)
    val net = new ResNetTabular(d.classification, seed = seed).train(train.map(x), train.map(d.y))
    val featTrain = train.map(i => net.features(x(i)))
    val featTest  = test.map(i => net.features(x(i)))
    val rf        = new RandomForest(d.classification, nTrees = 8, maxDepth = 6, seed = seed)
    val model     = rf.fit(featTrain, train.map(d.y))
    val score     = Metrics.paper(d.classification, test.map(d.y), featTest.map(model.predict))
    RunResult(name, "dln", "", 0.0, score, 0, 1, 0, 0, (System.nanoTime() - t0) / 1e6,
      Seq.empty, Seq(score))
  }

  /** FE|DL: features selected by E-AFE feed the deep model end-to-end. */
  def runFeDl(name: String, selectedKeys: Seq[String], seed: Long = 1L): RunResult = {
    val t0 = System.nanoTime()
    val d  = prepare(name)
    val x  = programs(d, selectedKeys).rows
    val (train, _, test) = split(d, seed)
    val net = new ResNetTabular(d.classification, seed = seed).train(train.map(x), train.map(d.y))
    val score =
      Metrics.paper(d.classification, test.map(d.y), test.map(i => net.predict(x(i))))
    RunResult(name, "fe_dl", "", 0.0, score, 0, 1, 0, 0, (System.nanoTime() - t0) / 1e6,
      selectedKeys, Seq(score))
  }

  /** DL|FE: deep features extracted from a split-trained net, then RL-style
    * subset selection with RF cross-validation on the extracted features.
    */
  def runDlFe(name: String, seed: Long = 1L): RunResult = {
    val t0 = System.nanoTime()
    val d  = rawFor(name)
    val x  = d.rows
    val (train, _, _) = split(d, seed)
    val net = new ResNetTabular(d.classification, seed = seed).train(train.map(x), train.map(d.y))
    // Deep features only on rows the net did NOT train on — CV over memorized
    // training rows would leak and inflate the DL|FE column.
    val trainSet = train.toSet
    val heldOut  = x.indices.filterNot(trainSet.contains).toArray
    val feats    = heldOut.map(i => net.features(x(i)))
    val yHeld    = heldOut.map(d.y)
    val learner  = new RandomForest(d.classification, nTrees = 8, maxDepth = 6, seed = seed)
    def subsetScore(keep: Seq[Int]): Double =
      if (keep.isEmpty) 0.0
      else CrossVal.score(feats.map(r => keep.map(r).toArray), yHeld, learner, 3, seed)
    val all    = subsetScore(feats(0).indices)
    val rounds = SubsetSearch.run(feats(0).length, 0, 8, all, new Random(seed))(subsetScore)
    val best   = rounds.foldLeft(all) { case (b, (_, s)) => if (s > b) s else b }
    RunResult(name, "dl_fe", "", 0.0, best, 0, 1L + rounds.size, 0, 0,
      (System.nanoTime() - t0) / 1e6, Seq.empty, Seq(best))
  }

  // --- Table V: downstream-task swap ---------------------------------------

  /** Re-evaluate a method's cached selected features with the downstream
    * model family `swap`. The learner takes the re-materialized programs'
    * rows (the raw features' when there are no keys).
    */
  def reEvaluate(name: String, selectedKeys: Seq[String], swap: Swap, seed: Long = 1L): Double = {
    val d = prepare(name).subsample(700, seed)
    val m = programs(d, selectedKeys)
    CrossVal.score(m.rows, m.y, swap.learner(d.classification, seed), 3, seed)
  }
}

/** A Table V downstream model family; each picks its learner from the task
  * type. NB-GP is Naive Bayes on classification and a Gaussian Process on
  * regression (the paper's fused "NB GP" column); SVM is ridge (linear SVR)
  * on regression.
  */
sealed abstract class Swap(val header: String, classifier: Long => Learner, regressor: Long => Learner)
    extends Serializable {
  def learner(classification: Boolean, seed: Long): Learner =
    if (classification) classifier(seed) else regressor(seed)
}

object Swap {
  case object Svm  extends Swap("SVM", s => new LinearSVM(seed = s), _ => new RidgeRegression())
  case object NbGp extends Swap("NBGP", _ => new NaiveBayes(), s => new GaussianProcess(seed = s))
  case object Mlp
      extends Swap("MLP", s => new MLPLearner(true, seed = s), s => new MLPLearner(false, seed = s))

  val all: Seq[Swap] = Seq(Svm, NbGp, Mlp)
}
