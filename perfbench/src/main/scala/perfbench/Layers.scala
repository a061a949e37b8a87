package perfbench

import repro.core.{FeatExpr, Ops, PolicyStep, Raw, RnnPolicy, RunResult}
import repro.data.{DatasetRegistry, TabularData}
import repro.eval.Harness
import repro.hash.{HashVariant, MinHashes}
import repro.ml.{CrossVal, DecisionTree, RandomForest}
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.util.Random

/** Per-layer metrics of a traced run. The `core.engine.*` numbers come from
  * the runs' own `RunResult`s; everything else is a probe: the benchmark
  * calls one public entry point of a layer and times it from outside.
  */
object Layers {

  /** Repeats `body` and returns the median nanoseconds per call. */
  private def medianNs(reps: Int)(body: => Any): Double =
    Stats.median((0 until reps).map(_ => Stats.timed(body)._2.toDouble))

  // --- core: the Engine's own counters ---------------------------------------

  private def engineOf(runs: Seq[(RunOutcome, RunResult)]): ListMap[String, Double] = {
    val ev   = runs.map(_._2.evaluated).sum.toDouble
    val gen  = runs.map(_._2.generated).sum.toDouble
    val acc  = runs.map { case (o, r) => r.selectedKeys.size - Harness.prepare(o.spec.dataset).nFeatures }.sum
    val eval = runs.map(_._2.evalMs).sum
    val g    = runs.map(_._2.genMs).sum
    ListMap(
      "evaluated"         -> ev,
      "generated"         -> gen,
      "eval_share"        -> Stats.ratio(ev, gen),
      "accepted_per_eval" -> Stats.ratio(acc, ev),
      "eval_ms_per_eval"  -> Stats.ratio(eval, ev),
      "gen_ms"            -> g,
      "rest_ms"           -> runs.map(_._2.totalMs).sum.-(eval).-(g),
      "alloc_mb_per_eval" -> Stats.ratio(runs.map(_._1.allocBytes).sum / 1e6, ev),
    )
  }

  /** `core.engine.*` over the NFS runs and over the E-AFE runs, as medians of
    * the per-iteration values (0 for a method the workload does not run).
    */
  def engine(its: Seq[Iteration]): ListMap[String, Double] = {
    def per(pick: RunOutcome => Boolean, suffix: String) = {
      val rows = its.map(it => engineOf(it.runs.filter(pick).flatMap(o => o.ok.map(o -> _))))
      ListMap(rows.head.keys.toSeq.map(k => s"core.engine.$k$suffix" -> Stats.median(rows.map(_(k)))): _*)
    }
    per(_.spec.method == "nfs", ".nfs") ++ per(_.spec.isEafe, ".eafe")
  }

  // --- probes -----------------------------------------------------------------

  /** The rows a run's downstream evaluations see (`Engine`'s subsample). */
  private def evalData(o: RunOutcome): TabularData =
    Harness.prepare(o.spec.dataset).subsample(o.spec.cfg.evalSampleCap, o.spec.cfg.seed)

  private def rowMajor(cols: Seq[Array[Double]], n: Int): Array[Array[Double]] =
    Array.tabulate(n)(i => cols.map(_(i)).toArray)

  /** `FeatExpr.evalLocal` of each run's selected programs with a fresh memo, and
    * the `ml` layer on the run's selected set plus one candidate.
    */
  def coreAndMl(runs: Seq[(RunOutcome, RunResult)], reps: Int): ListMap[String, Double] = {
    val materialize = mutable.ArrayBuffer.empty[Double]
    val cv          = mutable.ArrayBuffer.empty[Double]
    val cvAlloc     = mutable.ArrayBuffer.empty[Double]
    val forest      = mutable.ArrayBuffer.empty[Double]
    val tree        = mutable.ArrayBuffer.empty[Double]
    val predict     = mutable.ArrayBuffer.empty[Double]
    runs.zipWithIndex.foreach { case ((o, r), i) =>
      val d     = evalData(o)
      val cols  = d.columns
      val exprs = r.selectedKeys.map(FeatExpr.parse)
      materialize += medianNs(reps)(exprs.map(_.evalLocal(cols, mutable.Map.empty))) / 1e3
      val cand = FeatExpr.derive(Ops.all(i % Ops.all.length), Raw(0), Raw(d.nFeatures - 1))
      val x    = rowMajor((exprs :+ cand).map(_.evalLocal(cols, mutable.Map.empty)), d.nSamples)
      val c    = o.spec.cfg
      def rf   = new RandomForest(d.classification, c.rfTrees, c.rfDepth, seed = c.seed)
      (0 until reps).foreach { _ =>
        val a0      = Stats.allocatedBytes()
        val (_, ns) = Stats.timed(CrossVal.score(x, d.y, rf, c.folds, c.seed))
        cvAlloc += (Stats.allocatedBytes() - a0) / 1e6
        cv += ns / 1e6
      }
      forest += medianNs(reps)(rf.fit(x, d.y)) / 1e6
      tree += medianNs(reps)(new DecisionTree(d.classification, c.rfDepth, seed = c.seed).fit(x, d.y)) / 1e6
      val model = rf.fit(x, d.y)
      predict += medianNs(reps)(x.foreach(model.predict)) / 1e3 / x.length
    }
    ListMap(
      "core.materialize_us" -> Stats.median(materialize.toSeq),
      "ml.cv_eval_ms.p50"   -> Stats.quantile(cv.toSeq, 0.5),
      "ml.cv_eval_ms.p90"   -> Stats.quantile(cv.toSeq, 0.9),
      "ml.cv_eval_alloc_mb" -> Stats.median(cvAlloc.toSeq),
      "ml.forest_fit_ms"    -> Stats.median(forest.toSeq),
      "ml.tree_fit_ms"      -> Stats.median(tree.toSeq),
      "ml.forest_predict_us" -> Stats.median(predict.toSeq),
    )
  }

  /** One T=4 policy episode: four `RnnPolicy.forward` steps, then `update`. */
  def policy(seed: Long, reps: Int): ListMap[String, Double] = {
    val rng    = new Random(seed)
    val agent  = new RnnPolicy(Ops.all.length, seed = seed)
    val inputs = Array.fill(4)(Array.fill(agent.inputDim)(rng.nextDouble()))
    def episode(): Seq[PolicyStep] = {
      var h = agent.freshHidden
      inputs.toSeq.map { x =>
        val (hNew, probs) = agent.forward(x, h)
        val step          = PolicyStep(x, h, agent.sample(probs, rng))
        h = hNew
        step
      }
    }
    val steps   = episode()
    val returns = Seq.fill(4)(rng.nextGaussian() * 0.01)
    ListMap(
      "core.policy_forward_us" -> medianNs(reps)(episode()) / 1e3,
      "core.policy_update_us"  -> medianNs(reps)(agent.update(steps, returns)) / 1e3,
    )
  }

  /** A 600-value column of the workload's first dataset (rows repeated when it
    * has fewer), the input size of a signature in the search workloads.
    */
  def probeColumn(w: Workload): Array[Double] = {
    val d   = Harness.prepare(w.datasets.head).subsample(600, 1L)
    val col = d.column(0)
    Array.tabulate(600)(i => col(i % col.length))
  }

  /** `MinHashes.signature` per variant at d = 16 and 48, and `Trained.p` per
    * FPE model.
    */
  def hashAndFpe(col: Array[Double], setup: Setup, reps: Int): ListMap[String, Double] = {
    val sigs = for {
      v <- HashVariant.all
      d <- Seq(16, 48)
    } yield s"hash.signature_us.${v.name}.d$d" -> medianNs(reps)(MinHashes.signature(col, d, v)) / 1e3
    val infer = Workloads.Variants.map(v =>
      s"fpe.infer_us.$v" -> medianNs(reps)(setup.models(v).p(col)) / 1e3)
    ListMap(sigs ++ infer: _*)
  }

  def fpeSetup(setup: Setup): ListMap[String, Double] = ListMap(
    "fpe.label_s"         -> setup.seconds("fpe.label_s"),
    "fpe.labels"          -> setup.labeled.size.toDouble,
    "fpe.label_pos_share" -> Stats.ratio(setup.labeled.count(_.label == 1), setup.labeled.size),
  ) ++ Workloads.Variants.map(v => s"fpe.train_s.$v" -> setup.trainSeconds(v))

  /** `DatasetRegistry.load` of the workload's datasets, and their first
    * `Harness.prepare` during set-up.
    */
  def data(w: Workload, setup: Setup, reps: Int): ListMap[String, Double] = ListMap(
    "data.load_ms"    -> medianNs(reps)(w.datasets.foreach(DatasetRegistry.load)) / 1e6,
    "data.prepare_ms" -> setup.seconds("data.prepare_s") * 1e3,
  )

  /** Spark task overhead and contention in a grid iteration. `serialNs` holds
    * the same runs' serial times by run id.
    */
  def grid(it: Iteration, nproc: Int, serialNs: Map[String, Double]): ListMap[String, Double] = {
    val ok = it.runs.filter(_.ok.isDefined)
    ListMap(
      "eval.grid.idle_share"       -> (1 - Stats.ratio(ok.map(_.runNs.toDouble).sum, nproc * it.wallNs.toDouble)),
      "eval.grid.task_overhead_ms" -> Stats.median(ok.map(o => (o.taskNs - o.runNs) / 1e6)),
      "eval.grid.max_run_s"        -> ok.map(_.runNs).max / 1e9,
      "eval.grid.contention"       -> Stats.median(ok.collect {
        case o if serialNs.contains(o.spec.id) => o.runNs / serialNs(o.spec.id)
      }),
    )
  }
}
