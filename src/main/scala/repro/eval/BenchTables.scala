package repro.eval

import java.io.{File, PrintWriter}
import org.apache.commons.math3.stat.inference.TTest
import org.apache.spark.sql.SparkSession
import repro.FanOut
import repro.core.{Method, MethodConfig, RunResult}
import repro.data.DatasetRegistry
import repro.fpe.{FpeLabeler, FpeModel}
import repro.hash.HashVariant

/** One Table III column, with its TSV header. */
sealed abstract class Column(val header: String) extends Serializable

object Column {
  import HashVariant.{CCWS, ICWS, LICWS, PCWS}

  /** A column whose runs need no other run's output (grid phase A). */
  sealed abstract class Standalone(header: String) extends Column(header)

  /** A [[Method]] on the shared Engine; `variant` is its FPE's (CCWS where it has none). */
  sealed abstract class Rl(header: String, val method: Method, val variant: HashVariant)
      extends Standalone(header)

  case object FsR   extends Rl("FS_R", Method.Fsr, CCWS)
  case object DlN   extends Standalone("DL_N")
  case object Nfs   extends Rl("NFS", Method.Nfs, CCWS)
  case object DlFe  extends Standalone("DL|FE")
  case object EafeR extends Rl("E-AFE_R", Method.EafeR, CCWS)
  case object EafeD extends Rl("E-AFE_D", Method.EafeD, CCWS)
  case object EafeL extends Rl("E-AFE^L", Method.Eafe, LICWS)
  case object EafeP extends Rl("E-AFE^P", Method.Eafe, PCWS)
  case object EafeI extends Rl("E-AFE^I", Method.Eafe, ICWS)
  case object Eafe  extends Rl("E-AFE", Method.Eafe, CCWS)

  /** FE|DL trains on the features that `Eafe`'s run selected (grid phase B). */
  case object FeDl extends Column("FE|DL")

  /** Table III's columns, paper order. */
  val all: Seq[Column] = Seq(FsR, DlN, Nfs, FeDl, DlFe, EafeR, EafeD, EafeL, EafeP, EafeI, Eafe)
}

/** Builds the paper's evaluation tables (I, III, IV, V, VI) from one shared
  * grid of runs. The grid — 36 datasets × 11 columns — is fanned out as one
  * Spark task per run; FPE pre-training (leave-one-feature-out labeling over
  * the public datasets) is itself a Spark job. Every bench suite reuses the
  * same runs through `BenchResults.apply`, and the tables are written as TSVs
  * under bench-results/.
  */
final class BenchResults(spark: SparkSession, val seed: Long = 1L) {

  val datasets: Seq[String] = DatasetRegistry.targets.map(_.name)

  // --- FPE pre-training -----------------------------------------------------

  lazy val labeled: Seq[FpeLabeler.LabeledFeature] =
    FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(),
      FpeLabeler.Config(seed = seed), genPerDataset = 10, spark = Some(spark))

  /** One FPE model per hash variant an FPE column uses (E-AFE^L/^P/^I/E-AFE). */
  lazy val fpeModels: Map[HashVariant, FpeModel.Trained] = {
    val l = labeled
    Column.all.collect { case c: Column.Rl if c.method.usesFpe => c.variant }.distinct
      .map(v => v -> FpeModel.trainBest(l, variants = Seq(v), seed = seed)).toMap
  }

  // --- The run grid ---------------------------------------------------------

  // Each fan-out item carries the seed (and models) its task needs, so no
  // task closure captures this object.

  /** Phase A: every run that does not depend on another run's output. */
  lazy val gridA: Map[(String, Column), RunResult] = {
    val work = for (ds <- datasets; c <- Column.all.collect { case c: Column.Standalone => c })
      yield (ds, c, seed, fpeModels)
    FanOut.map(Some(spark), work) { case (ds, c, sd, models) =>
      val r = c match {
        case Column.DlN  => Harness.runDlN(ds, sd)
        case Column.DlFe => Harness.runDlFe(ds, sd)
        case rl: Column.Rl =>
          val cfg = MethodConfig(rl.method.name, hashVariant = rl.variant.name, seed = sd)
          Harness.runRl(ds, cfg, Option.when(rl.method.usesFpe)(models(rl.variant)), None)
      }
      (ds, c) -> r
    }.toMap
  }

  /** Phase B: FE|DL consumes E-AFE's selected features. */
  lazy val gridB: Map[(String, Column), RunResult] = {
    val work = datasets.map(ds => (ds, gridA((ds, Column.Eafe)).selectedKeys, seed))
    FanOut.map(Some(spark), work) { case (ds, keys, sd) =>
      (ds, Column.FeDl) -> Harness.runFeDl(ds, keys, sd)
    }.toMap
  }

  lazy val grid: Map[(String, Column), RunResult] = gridA ++ gridB

  // --- Table V swap ---------------------------------------------------------

  /** (dataset, column, swap) → score of the column's selected features. */
  lazy val tableVScores: Map[(String, Column, Swap), Double] = {
    val work = for {
      ds   <- datasets
      c    <- BenchTables.tableVColumns
      swap <- Swap.all
    } yield (ds, c, swap, grid((ds, c)).selectedKeys, seed)
    FanOut.map(Some(spark), work) { case (ds, c, swap, keys, sd) =>
      (ds, c, swap) -> Harness.reEvaluate(ds, keys, swap, sd)
    }.toMap
  }

  // --- Table I --------------------------------------------------------------

  /** One NFS epoch on the paper's four probe datasets, run sequentially for
    * clean generation-vs-evaluation timing. A first, discarded PimaIndian run
    * warms the JIT, so no timed run pays for it.
    */
  lazy val tableIRuns: Seq[RunResult] = {
    def nfsEpoch(ds: String) =
      Harness.runRl(ds, MethodConfig("nfs", stage1Epochs = 0, stage2Epochs = 1, seed = seed), None, None)
    nfsEpoch("PimaIndian")
    Seq("PimaIndian", "credit-a", "diabetes", "German Credit").map(nfsEpoch)
  }
}

/** The first `BenchResults` made in this JVM is kept for the JVM's lifetime:
  * a later call returns it and ignores its own `spark` argument.
  */
object BenchResults {
  private var cached: Option[BenchResults] = None
  def apply(spark: SparkSession): BenchResults = synchronized {
    cached.getOrElse { val b = new BenchResults(spark); cached = Some(b); b }
  }
}

/** Table formatting + TSV persistence. */
object BenchTables {

  private def fmt(d: Double): String = f"$d%.3f"

  /** Writes the table to bench-results/`name`.tsv and returns it rendered. */
  private def emit(name: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    // Forked bench-test JVMs run from bench/ — anchor output at the repo root.
    val cwd  = new File("").getAbsoluteFile
    val root = if (cwd.getName == "bench") cwd.getParentFile else cwd
    val f    = new File(root, s"bench-results/$name.tsv")
    Option(f.getParentFile).foreach(_.mkdirs())
    val pw = new PrintWriter(f)
    try {
      pw.println(header.mkString("\t"))
      rows.foreach(r => pw.println(r.mkString("\t")))
    } finally pw.close()
    render(header, rows)
  }

  /** Table I: one NFS epoch — generation vs evaluation time. */
  def tableI(b: BenchResults): String = {
    val header = Seq("Dataset", "Instances\\Features", "New Features",
      "Generation Time", "Eval. New Features Time", "Total Time")
    val rows = b.tableIRuns.map { r =>
      val d = Harness.prepare(r.dataset)
      Seq(r.dataset, s"${d.nSamples}\\${d.nFeatures}",
        r.generated.toString, f"${r.genMs}%.0fms", f"${r.evalMs / 1000}%.1fs",
        f"${r.totalMs / 1000}%.1fs")
    }
    emit("tableI", header, rows)
  }

  /** Table III: scores of the 11 methods on the 36 datasets. */
  def tableIII(b: BenchResults): String = {
    val header = Seq("Dataset", "C\\R", "Samples\\Features") ++ Column.all.map(_.header)
    val rows = b.datasets.map { ds =>
      val e = DatasetRegistry.byName(ds)
      Seq(ds, if (e.classification) "C" else "R", s"${e.paperSamples}\\${e.paperFeatures}") ++
        Column.all.map(c => fmt(b.grid((ds, c)).score))
    }
    emit("tableIII", header, rows)
  }

  /** Table IV's columns. */
  val tableIVColumns: Seq[Column] = Seq(Column.FsR, Column.Nfs, Column.EafeD, Column.Eafe)

  /** Table IV: downstream feature-evaluation counts per run. */
  def tableIV(b: BenchResults): String = {
    val header = "Dataset" +: tableIVColumns.map(_.header)
    val rows = b.datasets.map { ds =>
      ds +: tableIVColumns.map(c => b.grid((ds, c)).evaluated.toString)
    }
    emit("tableIV", header, rows)
  }

  /** Table V's columns: AutoFS_R, NFS and E-AFE. */
  val tableVColumns: Seq[Column] = Seq(Column.FsR, Column.Nfs, Column.Eafe)

  private val tableVCells = for (c <- tableVColumns; swap <- Swap.all) yield (c, swap)

  /** Table V's labels are Table III's headers without their punctuation (FSR, EAFE). */
  val tableVHeader: Seq[String] = Seq("Dataset", "C\\R") ++
    tableVCells.map { case (c, swap) => s"${c.header.filter(_.isLetter)}-${swap.header}" }

  /** Table V: downstream-task swap (SVM / NB-GP / MLP). */
  def tableV(b: BenchResults): String = {
    val rows = b.datasets.map { ds =>
      val e = DatasetRegistry.byName(ds)
      Seq(ds, if (e.classification) "C" else "R") ++
        tableVCells.map { case (c, swap) => fmt(b.tableVScores((ds, c, swap))) }
    }
    emit("tableV", tableVHeader, rows)
  }

  /** Table VI: paired-t p-values of E-AFE vs each baseline, for scores and wall-times. */
  def tableVI(b: BenchResults): (String, Map[(String, Column), Double]) = {
    val tt = new TTest()
    def pValue(of: RunResult => Double, c: Column): Double = {
      def values(c: Column) = b.datasets.map(ds => of(b.grid((ds, c)))).toArray
      tt.pairedTTest(values(Column.Eafe), values(c))
    }
    val cols: Seq[(Column, String)] =
      Seq(Column.FsR -> "AutoFS_R|E-AFE", Column.DlN -> "RTDL_N|E-AFE", Column.Nfs -> "NFS|E-AFE")
    val measures: Seq[(String, String, RunResult => Double)] =
      Seq(("perf", "Performance", _.score), ("time", "Time", _.totalMs))
    val ps = (for ((key, _, of) <- measures; (c, _) <- cols) yield (key, c) -> pValue(of, c)).toMap
    val header = "P-value" +: cols.map(_._2)
    val rows = measures.map { case (key, label, _) =>
      label +: cols.map { case (c, _) => f"${ps((key, c))}%.3g" }
    }
    (emit("tableVI", header, rows), ps)
  }

  private def render(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    all.map(r => r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
      .mkString("\n")
  }
}
