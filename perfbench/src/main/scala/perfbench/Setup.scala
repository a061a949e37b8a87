package perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.data.DatasetRegistry
import repro.eval.{BenchResults, Harness}
import repro.fpe.{FpeLabeler, FpeModel}
import repro.hash.HashVariant
import scala.collection.immutable.ListMap

/** Everything a workload needs before its first run, and what it cost.
  * `seconds` holds the set-up steps in order: spark session, labels, model
  * training and dataset preparation. `trainSeconds` splits model training
  * by hash variant.
  */
final case class Setup(
    spark: SparkSession,
    nproc: Int,
    labeled: Seq[FpeLabeler.LabeledFeature],
    models: Map[String, FpeModel.Trained],
    seconds: ListMap[String, Double],
    trainSeconds: Map[String, Double],
) {
  def total: Double = seconds.values.sum
}

object Setup {

  /** FPE pre-training always uses the paper tables' seed, so every benchmark
    * seed runs against the same four models; `--seed` varies the runs. (With
    * another pre-training seed, Algorithm 1 can pick d = 48 instead of 16 and
    * triple the hash work of a run.)
    */
  val PretrainSeed = 1L

  def session(nproc: Int, scratch: File): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(scratch, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(scratch, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** Spark session, FPE labels, one FPE model per hash variant, and the first
    * `Harness.prepare` of the workload's datasets.
    *
    * Bench and full scale label with `BenchResults.labeled`, exactly as the
    * paper tables do; tiny scale labels four public datasets instead. The
    * models are trained one variant at a time with the call
    * `BenchResults.fpeModels` makes, so each variant gets its own timing.
    */
  def apply(w: Workload, scale: Scale, nproc: Int, scratch: File, tracer: Tracer): Setup =
    tracer.span("setup") {
      val (spark, sessionNs) = Stats.timed(tracer.span("eval.spark_session")(session(nproc, scratch)))
      val bench              = new BenchResults(spark, PretrainSeed)
      val (labeled, labelNs) = Stats.timed(tracer.span("fpe.label") {
        if (scale == Scale.Tiny)
          FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(4),
            FpeLabeler.Config(seed = PretrainSeed), genPerDataset = 2, spark = Some(spark))
        else bench.labeled
      })
      val (trained, trainNs) = Stats.timed(Workloads.Variants.map { v =>
        val (m, ns) = Stats.timed(tracer.span(s"fpe.train.$v") {
          FpeModel.trainBest(labeled, variants = Seq(HashVariant.byName(v)), seed = PretrainSeed)
        })
        (v, m, ns)
      })
      val (_, prepareNs) = Stats.timed(w.datasets.foreach(ds => tracer.span("data.prepare", ds)(Harness.prepare(ds))))
      Setup(spark, nproc, labeled, trained.map { case (v, m, _) => v -> m }.toMap,
        seconds = ListMap(
          "eval.spark_session_s" -> sessionNs / 1e9,
          "fpe.label_s"          -> labelNs / 1e9,
          "fpe.train_s"          -> trainNs / 1e9,
          "data.prepare_s"       -> prepareNs / 1e9,
        ),
        trainSeconds = trained.map { case (v, _, ns) => v -> ns / 1e9 }.toMap)
    }
}
