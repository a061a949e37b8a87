package perfbench

import repro.core.MethodConfig

/** How much work one workload iteration does. */
sealed abstract class Scale(val name: String)

object Scale {
  /** What the benchmark times: one stage-2 epoch (and no stage 1) for search
    * and grid runs, 20 stage-1 epochs for stage-1-only runs.
    */
  case object Bench extends Scale("bench")

  /** The paper budget (default `MethodConfig`, 200 stage-1 epochs). At seed 1
    * its search and grid runs reproduce `bench-results/tableIII.tsv` and
    * `tableIV.tsv`.
    */
  case object Full extends Scale("full")

  /** A seconds-long configuration for the self-test. */
  case object Tiny extends Scale("tiny")

  val all: Seq[Scale] = Seq(Bench, Full, Tiny)

  def byName(n: String): Scale =
    all.find(_.name == n).getOrElse(sys.error(s"unknown scale: $n (${all.map(_.name).mkString(", ")})"))
}

/** One `Harness.runRl` call of a workload iteration. */
final case class RunSpec(dataset: String, method: String, cfg: MethodConfig) {
  def isEafe: Boolean = method == "eafe"
  def id: String      = if (isEafe) s"$dataset/eafe:${cfg.hashVariant}" else s"$dataset/$method"
}

/** A named list of runs, executed in order on the calling thread or, when
  * `grid` is set, as one Spark task per run the way `BenchResults.gridA` does.
  */
final case class Workload(name: String, runs: Seq[RunSpec], grid: Boolean) {
  def datasets: Seq[String] = runs.map(_.dataset).distinct
}

object Workloads {

  val names: Seq[String] = Seq("search", "fpe-stage1", "grid-slice")

  /** Three classification datasets (Gini CART, stratified folds, √p features)
    * and one regression dataset (variance CART, p/3 features). Summing over
    * four keeps an iteration's work from swinging with the seed. Regression
    * runs vary most: their per-evaluation cost grows with every accepted
    * feature (Housing Boston's varied 1.7× across seeds), so there is one.
    */
  val SearchDatasets: Seq[String] = Seq("PimaIndian", "diabetes", "credit-a", "Airfoil")
  val Stage1Dataset               = "German Credit"
  val GridDatasets: Seq[String] =
    Seq("labor", "fertility", "hepatitis", "lymph", "credit-a", "diabetes", "Airfoil", "sonar")
  val Variants: Seq[String] = Seq("ccws", "icws", "pcws", "licws")

  private def tiny(cfg: MethodConfig): MethodConfig =
    cfg.copy(T = 1, evalSampleCap = 80, rfTrees = 3, rfDepth = 4)

  /** NFS then E-AFE (CCWS) on one dataset. */
  private def pair(ds: String, scale: Scale, seed: Long): Seq[RunSpec] = {
    val nfs  = MethodConfig("nfs", seed = seed)
    val eafe = MethodConfig("eafe", hashVariant = "ccws", seed = seed)
    val (n, e) = scale match {
      case Scale.Full  => (nfs, eafe)
      // Stage 1 is fpe-stage1's workload. One stage-1 epoch here would add
      // replay seeding, about a dataset's feature count of evaluations, that
      // one stage-2 epoch cannot pay back.
      case Scale.Bench => (nfs.copy(stage2Epochs = 1), eafe.copy(stage1Epochs = 0, stage2Epochs = 1))
      case Scale.Tiny =>
        (tiny(nfs.copy(stage2Epochs = 1)), tiny(eafe.copy(stage1Epochs = 1, stage2Epochs = 1)))
    }
    Seq(RunSpec(ds, "nfs", n), RunSpec(ds, "eafe", e))
  }

  /** E-AFE stage 1 only: no stage 2, so exactly one downstream evaluation. */
  private def stage1(v: String, scale: Scale, seed: Long): RunSpec = {
    val cfg = MethodConfig("eafe", hashVariant = v, stage2Epochs = 0, seed = seed)
    RunSpec(Stage1Dataset, "eafe", scale match {
      case Scale.Full  => cfg.copy(stage1Epochs = 200)
      case Scale.Bench => cfg.copy(stage1Epochs = 20)
      case Scale.Tiny  => tiny(cfg.copy(stage1Epochs = 2))
    })
  }

  def apply(name: String, scale: Scale, seed: Long): Workload = name match {
    case "search"     => Workload(name, SearchDatasets.flatMap(pair(_, scale, seed)), grid = false)
    case "fpe-stage1" => Workload(name, Variants.map(stage1(_, scale, seed)), grid = false)
    case "grid-slice" => Workload(name, GridDatasets.flatMap(pair(_, scale, seed)), grid = true)
    case other        => sys.error(s"unknown workload: $other (${names.mkString(", ")})")
  }
}
