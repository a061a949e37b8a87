package repro.core

import org.apache.spark.sql.SparkSession
import repro.FanOut
import repro.data.TabularData
import repro.fpe.FpeModel
import repro.ml.CrossVal
import scala.collection.mutable
import scala.util.Random

/** A Table III method on the shared [[Engine]]: `nfs` (NFS), `fsr`
  * (AutoFS_R), `eafe` (E-AFE, hash variant per `MethodConfig.hashVariant`),
  * `eafe_d` (E-AFE_D) or `eafe_r` (E-AFE_R). Each case carries only the
  * decisions on which the methods differ. FS_R's random generation trains no
  * policy, so its return rule is unused; the two-stage E-AFE alone keeps a
  * replay buffer.
  */
sealed abstract class Method(
    val name: String,
    val usesFpe: Boolean = false,
    val twoStage: Boolean = false,
    val randomDropout: Boolean = false,
    val randomGeneration: Boolean = false,
    val returns: Method.ReturnRule = Method.Discounted,
) extends Serializable

object Method {
  /** How an agent's per-step rewards become its update's returns: `of(rewards, gamma, lambda)`. */
  sealed abstract class ReturnRule(val of: (Seq[Double], Double, Double) => Seq[Double])
  case object LambdaReturns extends ReturnRule(Returns.lambdaReturns(_, _, _).toSeq)
  case object FlatRewards   extends ReturnRule((r, _, _) => r)
  case object Discounted    extends ReturnRule((r, gamma, _) => Returns.discounted(r, gamma).toSeq)

  case object Nfs   extends Method("nfs")
  case object Fsr   extends Method("fsr", randomGeneration = true)
  case object Eafe  extends Method("eafe", usesFpe = true, twoStage = true, returns = LambdaReturns)
  case object EafeD extends Method("eafe_d", randomDropout = true, returns = LambdaReturns)
  case object EafeR extends Method("eafe_r", usesFpe = true, returns = FlatRewards)

  // Lazy: a case's constructor reads this object's defaults, so a strict `all`
  // built while a case is first touched would hold that case as null.
  lazy val all: Seq[Method] = Seq(Nfs, Fsr, Eafe, EafeD, EafeR)
  def byName(n: String): Method =
    all.find(_.name == n).getOrElse(sys.error(s"unknown method: $n"))
}

/** Configuration for one AFE run (defaults are the bench-scale values; see
  * DESIGN.md §2 for how they map to the paper's settings). `method` names the
  * [[Method]]; an unknown name fails here, at construction.
  */
final case class MethodConfig(
    method: String,
    hashVariant: String = "ccws",
    stage1Epochs: Int = 2,
    stage2Epochs: Int = 6,
    T: Int = 4,
    rfTrees: Int = 12,
    rfDepth: Int = 7,
    evalSampleCap: Int = 600,
    seed: Long = 1L,
) extends Serializable {
  val kind: Method = Method.byName(method)

  // Fixed for every method and run.
  val folds: Int            = 3   // CV folds of a downstream evaluation
  val gamma: Double         = 0.9 // return discount γ
  val lambda: Double        = 0.8 // λ of the λ-returns
  val maxOrder: Int         = 5   // highest order of a generated program
  val maxSubgroup: Int      = 8   // size cap of an agent's operand subgroup
  val extraSelectedCap: Int = 16  // generated features the state may hold
  val selectionRounds: Int  = 10  // AutoFS_R subset-search rounds

  /** The paper trains each stage for the full epoch budget ("The training
    * epoch of the two-stage policy training strategy is 200, respectively"):
    * E-AFE runs stage1 FPE-only epochs and then a full stage-2 budget, while
    * the single-stage methods (NFS, FS_R, E-AFE_R, E-AFE_D) run the same
    * stage-2 budget entirely against the downstream task.
    */
  def totalEpochs: Int =
    if (kind.twoStage) stage1Epochs + stage2Epochs else stage2Epochs
}

/** Outcome of one (dataset, method) run. */
final case class RunResult(
    dataset: String,
    method: String,
    hashVariant: String,
    baseScore: Double,
    score: Double,
    generated: Long,
    evaluated: Long,
    genMs: Double,
    evalMs: Double,
    totalMs: Double,
    selectedKeys: Seq[String],
    curve: Seq[Double],
    preEvaluated: Long = 0L, // FPE inferences
    preMs: Double = 0.0,     // time in FPE pre-evaluation
) extends Serializable

/** The RL-based AFE engine (Algorithm 2 and the NFS / AutoFS_R baselines on
  * the same substrate). One [[RnnPolicy]] agent per original feature; per
  * generation round every agent proposes one `OPERATOR(f1, f2)` candidate.
  * A stage-1 round rewards the agents from the FPE alone; any other round
  * evaluates its surviving candidates on the downstream task in parallel
  * ([[FanOut]]): on the common fork-join pool, or as one Spark task each when
  * a session is supplied. An Engine makes one run, on one calling thread.
  */
final class Engine(
    val data: TabularData,
    val cfg: MethodConfig,
    val fpe: Option[FpeModel.Trained],
    val spark: Option[SparkSession],
) {
  private val method = cfg.kind
  require(!method.usesFpe || fpe.isDefined, s"${cfg.method} requires a trained FPE model")
  // `RunResult.hashVariant` reports the config's variant; the signatures use the model's.
  require(!method.usesFpe || fpe.get.variant.name == cfg.hashVariant,
    s"${cfg.method} is set to hash variant ${cfg.hashVariant} but its FPE model uses ${fpe.get.variant.name}")

  /** Original feature `raw`'s agent: its policy and operand subgroup, the
    * current epoch's trajectory, and its stage-1 pseudo-score (Equ. 8–9).
    */
  private final class Agent(raw: Raw) {
    val policy   = new RnnPolicy(Ops.all.length, seed = cfg.seed * 1000L + raw.idx)
    val subgroup = mutable.ArrayBuffer[FeatExpr](raw)
    val steps    = mutable.ArrayBuffer.empty[PolicyStep]
    val rewards  = mutable.ArrayBuffer.empty[Double]
    var hidden   = policy.freshHidden
    var pseudoScore = 0.0

    def startEpoch(): Unit = { hidden = policy.freshHidden; steps.clear(); rewards.clear() }
    def grow(e: FeatExpr): Unit = if (subgroup.size < cfg.maxSubgroup) subgroup += e
  }

  /** Doubles kept ascending in `Double`'s total order, the order `sorted`
    * gives. `add` sorts a batch and merges it in from the top, so the
    * history is never re-sorted.
    */
  private final class SortedDoubles {
    private var xs = new Array[Double](64)
    var size       = 0
    def apply(i: Int): Double = xs(i)
    def add(batch: Array[Double]): Unit = {
      java.util.Arrays.sort(batch)
      if (xs.length < size + batch.length) xs = java.util.Arrays.copyOf(xs, 2 * (size + batch.length))
      var i = size - 1; var j = batch.length - 1; var k = size + batch.length - 1
      while (j >= 0) {
        if (i >= 0 && java.lang.Double.compare(xs(i), batch(j)) > 0) { xs(k) = xs(i); i -= 1 }
        else { xs(k) = batch(j); j -= 1 }
        k -= 1
      }
      size += batch.length
    }
  }

  private val evalData = data.subsample(cfg.evalSampleCap, cfg.seed)
  private val memo     = mutable.Map.empty[String, Array[Double]]
  private val scoreCache = mutable.Map.empty[String, Double]
  private val rng      = new Random(cfg.seed * 7919L + data.name.hashCode)

  private val n      = data.nFeatures
  private val raws   = (0 until n).map(Raw(_))
  private val agents = raws.map(new Agent(_))
  // Within-epoch dedup only: across epochs a re-proposed feature is
  // re-submitted to evaluation, exactly as NFS does (Table IV counts it).
  private val seen      = mutable.Set.empty[String]
  private val selected  = mutable.ArrayBuffer[FeatExpr](raws: _*)
  // Replay buffer of stage-1 positives: (program, P(effective)).
  private val replay    = mutable.ArrayBuffer.empty[(FeatExpr, Double)]
  private val curve     = mutable.ArrayBuffer.empty[Double]
  // `run` starts both scores at the raw features' downstream score.
  private var baseScore    = 0.0
  private var bestScore    = 0.0
  private var bestSelected = selected.toVector
  // Every P(effective) the FPE has given this run, for the keep threshold.
  private val judgedProbs = new SortedDoubles

  // Effort and time accounting (Tables I, IV, VI): candidates generated, FPE
  // inferences, downstream (RF CV) evaluations, and the nanos of each phase.
  private var generated, preEvaluated, evaluated = 0L
  private var genNanos, preNanos, evalNanos      = 0L

  private def materialize(e: FeatExpr): Array[Double] = e.evalLocal(evalData.columns, memo)

  /** The evaluation rows with the given programs as their features. */
  private def dataset(exprs: Seq[FeatExpr]): TabularData =
    evalData.copy(columns = exprs.map(materialize).toArray)

  private def setKey(exprs: Seq[FeatExpr]): String = exprs.map(_.key).sorted.mkString(";")

  /** Downstream CV score of a feature set; cached by canonical set key. */
  private def score(exprs: Seq[FeatExpr]): Double =
    scoreCache.getOrElseUpdate(setKey(exprs), {
      evaluated += 1
      val t0 = System.nanoTime()
      val s  = CrossVal.forest(dataset(exprs), cfg.rfTrees, cfg.rfDepth, cfg.folds, cfg.seed)
      evalNanos += System.nanoTime() - t0
      s
    })

  /** Evaluate `state` plus one candidate for every distinct candidate, in
    * parallel ([[FanOut]]): on the common fork-join pool, or one Spark task
    * per candidate when a session is available. Every path gives the same
    * scores (seeded learner). The columns are materialized on the calling
    * thread first, because `memo` is not thread-safe. No memoization of
    * scores here: the systems the paper profiles refit the downstream CV for
    * every submitted feature, and Table I/IV/VI account evaluations that way.
    * `evalNanos` is the batch's wall time.
    */
  private def evalBatch(state: Seq[FeatExpr], candidates: Seq[FeatExpr]): Map[String, Double] = {
    val fresh = candidates.distinctBy(_.key)
    if (fresh.isEmpty) return Map.empty

    val t0 = System.nanoTime()
    // Locals only: the tasks must not capture this Engine.
    val (sel, c) = (dataset(state), cfg)
    val cv: ((String, Array[Double])) => (String, Double) = { case (key, col) =>
      key -> CrossVal.forest(sel.withColumns(Seq(col)), c.rfTrees, c.rfDepth, c.folds, c.seed)
    }
    val scores = FanOut.map(spark, fresh.map(e => (e.key, materialize(e))))(cv).toMap
    evaluated += fresh.size
    evalNanos += System.nanoTime() - t0
    scores
  }

  private def room(e: FeatExpr): Boolean =
    selected.size < n + cfg.extraSelectedCap && !selected.exists(_.key == e.key)

  /** The one place the best score and its feature set move. */
  private def raiseBest(s: Double, set: => Vector[FeatExpr]): Unit =
    if (s > bestScore) { bestScore = s; bestSelected = set }

  /** Candidate `e`, whose downstream score `s` is that of `state :+ e`: when
    * `keep`, append it to the state and to its agent's subgroup (a replayed
    * feature has none). A kept candidate, or any under random generation,
    * may raise the best score, with `state :+ e` as the set that scored it.
    */
  private def settle(state: Vector[FeatExpr], e: FeatExpr, s: Double, keep: Boolean,
      agent: Option[Agent]): Unit = {
    if (keep) { selected += e; agent.foreach(_.grow(e)) }
    if (keep || method.randomGeneration) raiseBest(s, state :+ e)
  }

  def run(): RunResult = {
    val tStart = System.nanoTime()
    baseScore = score(raws)
    bestScore = baseScore
    agents.foreach(_.pseudoScore = baseScore)

    for (epoch <- 0 until cfg.totalEpochs) {
      val stage1 = method.twoStage && epoch < cfg.stage1Epochs
      if (method.twoStage && epoch == cfg.stage1Epochs) seedFromReplay()
      runEpoch(stage1)
      curve += bestScore
    }
    if (method.randomGeneration && selected.size > n) selectSubset()

    RunResult(
      dataset = data.name,
      method = cfg.method,
      hashVariant = if (method.usesFpe) cfg.hashVariant else "",
      baseScore = baseScore,
      score = bestScore,
      generated = generated,
      evaluated = evaluated,
      genMs = genNanos / 1e6,
      evalMs = evalNanos / 1e6,
      totalMs = (System.nanoTime() - tStart) / 1e6,
      selectedKeys = bestSelected.map(_.key),
      curve = curve.toSeq,
      preEvaluated = preEvaluated,
      preMs = preNanos / 1e6,
    )
  }

  /** Algorithm 2 line 16: at the formal-training boundary the replay buffer's
    * most promising features get a downstream evaluation — only n·T/4 of
    * them, so that seeding does not undo the stage-1 evaluation savings.
    */
  private def seedFromReplay(): Unit = {
    val pending = replay
      .sortBy(-_._2)
      .map(_._1)
      .filterNot(e => selected.exists(_.key == e.key))
      .distinctBy(_.key)
      .take(math.max(1, n * cfg.T / 4))
      .toSeq
    val state  = selected.toVector
    val scores = evalBatch(state, pending)
    pending.foreach { e =>
      val s = scores(e.key)
      settle(state, e, s, s > bestScore && room(e), None)
    }
  }

  /** One epoch: T rounds (stage-1 pretraining, or screening then downstream
    * evaluation), then the policy update.
    */
  private def runEpoch(stage1: Boolean): Unit = {
    agents.foreach(_.startEpoch())
    seen.clear()
    seen ++= selected.map(_.key) // the raw features and every accepted one

    for (t <- 0 until cfg.T) {
      val candidates = generate(t, stage1)
      val reward     = if (stage1) pretrain(candidates) else evaluate(screen(candidates))
      agents.foreach(a => a.rewards += reward.getOrElse(a, 0.0))
    }
    update()
  }

  /** Every agent proposes one candidate; returns those within the order cap
    * and, except under random generation, not yet seen this epoch. Random
    * generation draws the operator and runs no policy.
    */
  private def generate(t: Int, stage1: Boolean): Seq[(Agent, FeatExpr)] = {
    val tGen = System.nanoTime()
    val proposals = agents.map { a =>
      val actionIdx =
        if (method.randomGeneration) rng.nextInt(Ops.all.length)
        else {
          val x = Array(
            math.min(a.subgroup.size, 10) / 10.0,
            if (stage1) a.pseudoScore else bestScore,
            a.rewards.lastOption.getOrElse(0.0) * 10.0,
            (t + 1).toDouble / cfg.T,
          )
          val (hNew, probs) = a.policy.forward(x, a.hidden)
          val action        = a.policy.sample(probs, rng)
          a.steps += PolicyStep(x, a.hidden, action)
          a.hidden = hNew
          action
        }
      val fa = a.subgroup(rng.nextInt(a.subgroup.size))
      val fb = a.subgroup(rng.nextInt(a.subgroup.size))
      (a, FeatExpr.derive(Ops.all(actionIdx), fa, fb))
    }
    // FS_R skips dedup: random generation re-creates and re-evaluates
    // duplicates (Table IV's highest count).
    val valid = proposals.filter { case (_, e) =>
      e.order <= cfg.maxOrder && (method.randomGeneration || !seen.contains(e.key))
    }
    valid.foreach { case (_, e) => seen += e.key }
    generated += valid.size
    genNanos += System.nanoTime() - tGen
    valid
  }

  /** The FPE's p (Equ. 7) of each candidate and whether the FPE keeps it.
    * The keep threshold adapts so the drop rate stays >0.5 on this run's
    * *deployed* distribution (Section III-D): it is a quantile of the
    * P(effective) of the candidates judged before this batch, with the
    * pre-trained tau for the first observations.
    */
  private def judge(candidates: Seq[(Agent, FeatExpr)]): Seq[(Agent, FeatExpr, Double, Boolean)] = {
    val tPre = System.nanoTime()
    val thr =
      if (judgedProbs.size < 8) fpe.get.tau
      else {
        val m = judgedProbs.size
        judgedProbs(math.min(m - 1, math.max(0, math.ceil(m * 0.62).toInt - 1)))
      }
    val judged = candidates.map { case (a, e) =>
      val pBad = fpe.get.p(materialize(e))
      (a, e, pBad, 1.0 - pBad >= thr)
    }
    judgedProbs.add(judged.iterator.map(1.0 - _._3).toArray)
    preEvaluated += candidates.size
    preNanos += System.nanoTime() - tPre
    judged
  }

  /** Stage 1 (Equ. 8–9): each agent's reward is the change of its FPE
    * pseudo-score; a kept candidate joins the replay buffer and its agent's
    * subgroup. No downstream evaluation.
    */
  private def pretrain(candidates: Seq[(Agent, FeatExpr)]): Map[Agent, Double] =
    judge(candidates).map { case (a, e, pBad, keep) =>
      val aH     = fpe.get.scoreFromP(pBad, baseScore)
      val reward = aH - a.pseudoScore
      a.pseudoScore = aH
      if (keep) { replay += ((e, 1.0 - pBad)); a.grow(e) }
      a -> reward
    }.toMap

  /** The candidates that go on to the downstream task: those the FPE keeps,
    * a random half under E-AFE_D, or all of them.
    */
  private def screen(candidates: Seq[(Agent, FeatExpr)]): Seq[(Agent, FeatExpr)] =
    if (method.usesFpe) judge(candidates).collect { case (a, e, _, true) => (a, e) }
    else if (method.randomDropout) candidates.filter(_ => rng.nextDouble() < 0.5)
    else candidates

  /** Downstream evaluation of the round's survivors; each gain over the
    * round's starting best score is its agent's reward. Random generation
    * keeps everything (no performance gate): the polluted pool is what the
    * selection stage must fix.
    */
  private def evaluate(survivors: Seq[(Agent, FeatExpr)]): Map[Agent, Double] = {
    val state  = selected.toVector
    val scores = evalBatch(state, survivors.map(_._2))
    val anchor = bestScore
    survivors.map { case (a, e) =>
      val s    = scores(e.key)
      val gain = s - anchor
      settle(state, e, s, (method.randomGeneration || gain > 0) && room(e), Some(a))
      a -> gain
    }.toMap
  }

  /** Policy update (Equ. 10–12) from the epoch's rewards. */
  private def update(): Unit =
    if (!method.randomGeneration) agents.foreach { a =>
      a.policy.update(a.steps.toSeq, method.returns.of(a.rewards.toSeq, cfg.gamma, cfg.lambda))
    }

  /** AutoFS_R's RL subset selection over the generated pool; raw features are always kept. */
  private def selectSubset(): Unit = {
    val pool = selected.toVector
    SubsetSearch.run(pool.size, n, cfg.selectionRounds, bestScore, rng)(keep => score(keep.map(pool)))
      .foreach { case (keep, s) => raiseBest(s, keep.map(pool).toVector) }
  }
}
