package repro.eval

import java.io.{File, PrintWriter}
import org.apache.commons.math3.stat.inference.TTest
import org.apache.spark.sql.SparkSession
import repro.FanOut
import repro.core.{MethodConfig, RunResult}
import repro.data.DatasetRegistry
import repro.fpe.{FpeLabeler, FpeModel}
import repro.hash.HashVariant

/** Builds the paper's evaluation tables (I, III, IV, V, VI) from one shared
  * grid of runs. The grid — 36 datasets × 11 methods — is fanned out as one
  * Spark task per run; FPE pre-training (leave-one-feature-out labeling over
  * the public datasets) is itself a Spark job. Results are cached per
  * SparkSession so every bench suite reuses the same runs, and written as
  * TSVs under bench-results/.
  */
final class BenchResults(spark: SparkSession, val seed: Long = 1L) {

  /** Table III method columns, paper order. */
  val methods: Seq[String] = Seq(
    "fsr", "dln", "nfs", "fe_dl", "dl_fe", "eafe_r", "eafe_d",
    "eafe:licws", "eafe:pcws", "eafe:icws", "eafe:ccws",
  )

  val datasets: Seq[String] = DatasetRegistry.targets.map(_.name)

  // --- FPE pre-training -----------------------------------------------------

  lazy val labeled: Seq[FpeLabeler.LabeledFeature] =
    FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(),
      FpeLabeler.Config(seed = seed), genPerDataset = 10, spark = Some(spark))

  /** One FPE model per hash variant (Table III's E-AFE^L/^P/^I/E-AFE). */
  lazy val fpeModels: Map[String, FpeModel.Trained] = {
    val l = labeled
    Seq("ccws", "icws", "pcws", "licws").map { v =>
      v -> FpeModel.trainBest(l, variants = Seq(HashVariant.byName(v)), seed = seed)
    }.toMap
  }

  // --- The run grid ---------------------------------------------------------

  // Each fan-out item carries the seed (and models) its task needs, so no
  // task closure captures this object.

  /** Phase A: every run that does not depend on another run's output. */
  lazy val gridA: Map[(String, String), RunResult] = {
    val work = for {
      ds <- datasets
      m  <- methods if m != "fe_dl"
    } yield (ds, m, seed, fpeModels)
    FanOut.map(Some(spark), work) { case (ds, m, sd, models) =>
      val r = m match {
        case "dln"   => Harness.runDlN(ds, sd)
        case "dl_fe" => Harness.runDlFe(ds, sd)
        case key => // method[:hash variant]
          val cfg = key.split(':') match {
            case Array(method, hv) => MethodConfig(method, hashVariant = hv, seed = sd)
            case Array(method)     => MethodConfig(method, seed = sd)
          }
          Harness.runRl(ds, cfg, Option.when(cfg.kind.usesFpe)(models(cfg.hashVariant)), None)
      }
      (ds, m) -> r
    }.toMap
  }

  /** Phase B: FE|DL consumes E-AFE's selected features. */
  lazy val gridB: Map[(String, String), RunResult] = {
    val work = datasets.map(ds => (ds, gridA((ds, "eafe:ccws")).selectedKeys, seed))
    FanOut.map(Some(spark), work) { case (ds, keys, sd) =>
      (ds, "fe_dl") -> Harness.runFeDl(ds, keys, sd)
    }.toMap
  }

  lazy val grid: Map[(String, String), RunResult] = gridA ++ gridB

  // --- Table V swap ---------------------------------------------------------

  /** (dataset, method, swapModel) → score for AutoFS_R / NFS / E-AFE. */
  lazy val tableVScores: Map[(String, String, String), Double] = {
    val work = for {
      ds   <- datasets
      m    <- Seq("fsr", "nfs", "eafe:ccws")
      swap <- Seq("svm", "nbgp", "mlp")
    } yield (ds, m, swap, grid((ds, m)).selectedKeys, seed)
    FanOut.map(Some(spark), work) { case (ds, m, swap, keys, sd) =>
      (ds, m, swap) -> Harness.reEvaluate(ds, keys, swap, sd)
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

object BenchResults {
  private var cached: Option[BenchResults] = None
  def apply(spark: SparkSession): BenchResults = synchronized {
    cached.getOrElse { val b = new BenchResults(spark); cached = Some(b); b }
  }
}

/** Table formatting + TSV persistence. */
object BenchTables {

  private def fmt(d: Double): String = f"$d%.3f"

  def writeTsv(path: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    // Forked bench-test JVMs run from bench/ — anchor output at the repo root.
    val cwd  = new File("").getAbsoluteFile
    val root = if (cwd.getName == "bench") cwd.getParentFile else cwd
    val f    = new File(root, path)
    Option(f.getParentFile).foreach(_.mkdirs())
    val pw = new PrintWriter(f)
    try {
      pw.println(header.mkString("\t"))
      rows.foreach(r => pw.println(r.mkString("\t")))
    } finally pw.close()
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
    writeTsv("bench-results/tableI.tsv", header, rows)
    render(header, rows)
  }

  /** Table III: scores of the 11 methods on the 36 datasets. */
  def tableIII(b: BenchResults): String = {
    val header = Seq("Dataset", "C\\R", "Samples\\Features", "FS_R", "DL_N", "NFS", "FE|DL",
      "DL|FE", "E-AFE_R", "E-AFE_D", "E-AFE^L", "E-AFE^P", "E-AFE^I", "E-AFE")
    val rows = b.datasets.map { ds =>
      val e = DatasetRegistry.byName(ds)
      Seq(ds, if (e.classification) "C" else "R", s"${e.paperSamples}\\${e.paperFeatures}") ++
        b.methods.map(m => fmt(b.grid((ds, m)).score))
    }
    writeTsv("bench-results/tableIII.tsv", header, rows)
    render(header, rows)
  }

  /** Table IV: downstream feature-evaluation counts per run. */
  def tableIV(b: BenchResults): String = {
    val header = Seq("Dataset", "FS_R", "NFS", "E-AFE_D", "E-AFE")
    val rows = b.datasets.map { ds =>
      Seq(ds) ++ Seq("fsr", "nfs", "eafe_d", "eafe:ccws").map(m =>
        b.grid((ds, m)).evaluated.toString)
    }
    writeTsv("bench-results/tableIV.tsv", header, rows)
    render(header, rows)
  }

  /** Table V: downstream-task swap (SVM / NB-GP / MLP). */
  def tableV(b: BenchResults): String = {
    val header = Seq("Dataset", "C\\R",
      "FSR-SVM", "FSR-NBGP", "FSR-MLP",
      "NFS-SVM", "NFS-NBGP", "NFS-MLP",
      "EAFE-SVM", "EAFE-NBGP", "EAFE-MLP")
    val rows = b.datasets.map { ds =>
      val e = DatasetRegistry.byName(ds)
      Seq(ds, if (e.classification) "C" else "R") ++ (for {
        m    <- Seq("fsr", "nfs", "eafe:ccws")
        swap <- Seq("svm", "nbgp", "mlp")
      } yield fmt(b.tableVScores((ds, m, swap))))
    }
    writeTsv("bench-results/tableV.tsv", header, rows)
    render(header, rows)
  }

  /** Table VI: paired-t p-values of E-AFE vs each baseline, for scores and
    * wall-times.
    */
  def tableVI(b: BenchResults): (String, Map[(String, String), Double]) = {
    val tt   = new TTest()
    val eafeS = b.datasets.map(ds => b.grid((ds, "eafe:ccws")).score).toArray
    val eafeT = b.datasets.map(ds => b.grid((ds, "eafe:ccws")).totalMs).toArray
    def p(m: String): (Double, Double) = {
      val s = b.datasets.map(ds => b.grid((ds, m)).score).toArray
      val t = b.datasets.map(ds => b.grid((ds, m)).totalMs).toArray
      (tt.pairedTTest(eafeS, s), tt.pairedTTest(eafeT, t))
    }
    val cols = Seq("fsr" -> "AutoFS_R|E-AFE", "dln" -> "RTDL_N|E-AFE", "nfs" -> "NFS|E-AFE")
    val ps   = cols.map { case (m, _) => m -> p(m) }.toMap
    val header = Seq("P-value") ++ cols.map(_._2)
    val rows = Seq(
      Seq("Performance") ++ cols.map { case (m, _) => f"${ps(m)._1}%.3g" },
      Seq("Time") ++ cols.map { case (m, _) => f"${ps(m)._2}%.3g" },
    )
    writeTsv("bench-results/tableVI.tsv", header, rows)
    val values = cols.flatMap { case (m, _) =>
      Seq(("perf", m) -> ps(m)._1, ("time", m) -> ps(m)._2)
    }.toMap
    (render(header, rows), values)
  }

  def render(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all    = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    all.map(r => r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  "))
      .mkString("\n")
  }
}
