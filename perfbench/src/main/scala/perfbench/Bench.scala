package perfbench

import com.fasterxml.jackson.databind.ObjectMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import repro.core.RunResult
import scala.collection.immutable.ListMap

/** The benchmark's entry point: one workload per invocation.
  *
  * {{{
  * perfbench.Bench --workload search|fpe-stage1|grid-slice [--seed 1] [--seconds 20]
  *                 [--trace 0|1] [--scale bench|full|tiny] [--root .] [--out perfbench/out]
  * }}}
  *
  * Set-up (Spark session, FPE labels, the four FPE models, dataset
  * preparation) is timed as `setup_s`. A warm-up iteration of the same runs
  * follows; its timings are discarded, but its results are the reference the
  * correctness gate compares every later iteration with. Then closed-loop
  * iterations run for `--seconds`. Untraced, the last line of
  * standard output is the end-to-end result as JSON. Traced, spans are
  * recorded around the benchmark's calls into the program, per-layer probes
  * run after the measured iterations, and the JSON holds the per-layer
  * metrics. Either way a record of the environment, the metrics, the
  * correctness problems and (when traced) the spans is written to `--out`.
  */
object Bench {

  final case class Args(
      workload: String,
      seed: Long = 1L,
      seconds: Double = 20.0,
      trace: Boolean = false,
      scale: Scale = Scale.Bench,
      root: File = new File("."),
      out: File = new File("perfbench/out"),
      gitSha: String = "unknown",
      sourceDigest: String = "unknown",
  )

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"expected --name value pairs, got ${other.mkString(" ")}")
    }.toMap
    val known = Set("workload", "seed", "seconds", "trace", "scale", "root", "out", "git-sha", "source-digest")
    kv.keys.filterNot(known).foreach(k => sys.error(s"unknown option --$k"))
    Args(
      workload = kv.getOrElse("workload", sys.error("--workload is required")),
      seed = kv.get("seed").map(_.toLong).getOrElse(1L),
      seconds = kv.get("seconds").map(_.toDouble).getOrElse(20.0),
      trace = kv.get("trace").exists(v => v != "0" && v != "false"),
      scale = kv.get("scale").map(Scale.byName).getOrElse(Scale.Bench),
      root = kv.get("root").map(new File(_)).getOrElse(new File(".")),
      out = kv.get("out").map(new File(_)).getOrElse(new File("perfbench/out")),
      gitSha = kv.getOrElse("git-sha", "unknown"),
      sourceDigest = kv.getOrElse("source-digest", "unknown"),
    )
  }

  private val mapper = new ObjectMapper().registerModule(DefaultScalaModule)

  def json(value: Any): String = mapper.writeValueAsString(value)

  /** Metric names and units, in output order. */
  val EndToEnd: ListMap[String, String] = ListMap(
    "setup_s"          -> "s",
    "evaluations"      -> "count",
    "candidates_per_s" -> "1/s",
    "wall_ms_per_eval" -> "ms",
    "score"            -> "score",
    "alloc_gb"         -> "GB",
  )

  val PerLayer: ListMap[String, String] = {
    val engine = ListMap("evaluated" -> "count", "generated" -> "count", "eval_share" -> "ratio",
      "accepted_per_eval" -> "ratio", "eval_ms_per_eval" -> "ms", "gen_ms" -> "ms", "rest_ms" -> "ms",
      "alloc_mb_per_eval" -> "MB")
    ListMap(
      (for {
        suffix     <- Seq(".nfs", ".eafe")
        (k, unit)  <- engine.toSeq
      } yield s"core.engine.$k$suffix" -> unit) ++
        Seq("core.materialize_us" -> "us", "core.policy_forward_us" -> "us", "core.policy_update_us" -> "us",
          "ml.cv_eval_ms.p50" -> "ms", "ml.cv_eval_ms.p90" -> "ms", "ml.cv_eval_alloc_mb" -> "MB",
          "ml.forest_fit_ms" -> "ms", "ml.tree_fit_ms" -> "ms", "ml.forest_predict_us" -> "us") ++
        (for {
          v <- Seq("minhash") ++ Workloads.Variants
          d <- Seq(16, 48)
        } yield s"hash.signature_us.$v.d$d" -> "us") ++
        Workloads.Variants.map(v => s"fpe.infer_us.$v" -> "us") ++
        Seq("fpe.label_s" -> "s", "fpe.labels" -> "count", "fpe.label_pos_share" -> "ratio") ++
        Workloads.Variants.map(v => s"fpe.train_s.$v" -> "s") ++
        Seq("data.load_ms" -> "ms", "data.prepare_ms" -> "ms",
          "eval.spark_session_s" -> "s", "eval.grid.idle_share" -> "ratio",
          "eval.grid.task_overhead_ms" -> "ms", "eval.grid.max_run_s" -> "s", "eval.grid.contention" -> "ratio",
          "trace.overhead_share" -> "ratio"): _*)
  }

  /** What one invocation produced. `lines` is the human-readable report;
    * `metrics` holds the end-to-end or, when traced, the per-layer metrics,
    * with their units.
    */
  final case class Report(
      correct: Boolean,
      attempted: Int,
      failed: Int,
      metrics: ListMap[String, Double],
      units: ListMap[String, String],
      lines: Seq[String],
  ) {
    def resultLine: String = json(ListMap(
      "correct"   -> correct,
      "attempted" -> attempted,
      "failed"    -> failed,
      "metrics"   -> metrics.map { case (k, v) => k -> ListMap("value" -> v, "unit" -> units(k)) },
    ))
  }

  private def okRuns(it: Iteration): Seq[RunResult] = it.runs.flatMap(_.ok)

  private def endToEnd(its: Seq[Iteration], setup: Setup): (ListMap[String, Double], Seq[String]) = {
    def med(f: Iteration => Double) = Stats.median(its.map(f))
    def secs(method: String)(it: Iteration) = it.runs.filter(_.spec.method == method).map(_.runNs).sum / 1e9
    val m = ListMap(
      "setup_s"          -> setup.total,
      "evaluations"      -> med(okRuns(_).map(_.evaluated).sum.toDouble),
      "candidates_per_s" -> med(it => okRuns(it).map(_.generated).sum / (it.wallNs / 1e9)),
      "wall_ms_per_eval" -> med(it => it.wallNs / 1e6 / okRuns(it).map(_.evaluated).sum),
      "score"            -> med(it => Stats.ratio(okRuns(it).map(_.score).sum, okRuns(it).size)),
      "alloc_gb"         -> med(_.runs.map(_.allocBytes).sum / 1e9),
    )
    def timing(xs: Seq[Double]) =
      s"median of n=${xs.size} iterations${Stats.tail(xs).map { case (p, x) => f", $p $x%.4f" }.getOrElse("")}"
    def line(name: String, xs: Seq[Double]) =
      f"$name%-17s = ${Stats.median(xs)}%.4f s (${timing(xs)}; not in the JSON)"
    // Wall and per-method seconds are printed only. They follow the seed's
    // evaluation count and this machine's speed drift; over ten seeds on
    // search their spread reached the largest bound allowed (25%).
    val lines = m.toSeq.map { case (k, v) =>
      f"$k%-17s = $v%.4f ${EndToEnd(k)}${if (k == "setup_s") " (n=1 set-up)" else ""}"
    } ++ Seq(line("wall_s", its.map(_.wallNs / 1e9))) ++
      Seq("nfs", "eafe").filter(meth => its.head.runs.exists(_.spec.method == meth))
        .map(meth => line(s"${meth}_run_s", its.map(secs(meth))))
    (m, lines)
  }

  private def environment(a: Args, setup: Setup): ListMap[String, Any] = {
    val rt = ManagementFactory.getRuntimeMXBean
    ListMap(
      "workload"      -> a.workload,
      "scale"         -> a.scale.name,
      "seed"          -> a.seed,
      "seconds"       -> a.seconds,
      "trace"         -> a.trace,
      "git_sha"       -> a.gitSha,
      "source_digest" -> a.sourceDigest,
      "nproc"         -> setup.nproc,
      "spark_master"  -> setup.spark.sparkContext.master,
      "spark_version" -> org.apache.spark.SPARK_VERSION,
      "java_version"  -> System.getProperty("java.version"),
      "java_vm"       -> System.getProperty("java.vm.name"),
      "jvm_flags"     -> rt.getInputArguments.toArray.toSeq.map(_.toString),
      "max_heap_mb"   -> Runtime.getRuntime.maxMemory / (1 << 20),
      "os"            -> s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}",
      "fpe_models"    -> ListMap(setup.models.toSeq.sortBy(_._1).map { case (v, m) =>
        v -> ListMap("d" -> m.d, "recall" -> m.recall, "precision" -> m.precision, "tau" -> m.tau)
      }: _*),
    )
  }

  def run(a: Args): Report = {
    val w      = Workloads(a.workload, a.scale, a.seed)
    val tracer = new Tracer(a.trace)
    val quiet  = new Tracer(false)
    val nproc  = Runtime.getRuntime.availableProcessors
    val tables = Option.when(a.scale == Scale.Full && a.seed == 1L)(Gate.loadTables(a.root))
    a.out.mkdirs()
    val setup = Setup(w, a.scale, nproc, a.out, tracer)
    try {
      val warmUp   = Runner.iteration(w, setup, quiet)
      val baseline = Option.when(a.trace)(Runner.iteration(w, setup, quiet))
      val its      = Runner.measure(w, setup, tracer, a.seconds)

      val (e2e, e2eLines) = endToEnd(its, setup)
      val (perLayer, gridProbe) =
        if (!a.trace) (ListMap.empty[String, Double], None)
        else tracer.span("probes")(probes(w, setup, its, baseline.get, tracer))
      val checked  = Gate.check(warmUp +: (baseline.toSeq ++ its ++ gridProbe), tables, perDataset = a.scale == Scale.Full)
      val notes    = if (a.scale == Scale.Full) Nil else Gate.eafeNotCheaper(its.head).map { case (ds, nfs, eafe) =>
        s"NOTE $ds: E-AFE made $eafe downstream evaluations, NFS $nfs (compared per dataset only at full scale)" }
      val failures = checked.filter(_._2.nonEmpty)
      val metrics  = if (a.trace) perLayer else e2e
      val units    = if (a.trace) PerLayer else EndToEnd
      val env      = environment(a, setup)
      val lines = Seq(s"perfbench workload=${a.workload} scale=${a.scale.name} seed=${a.seed} trace=${if (a.trace) 1 else 0}",
        s"env ${json(env)}",
        f"${"setup steps"}%-17s : " + setup.seconds.map { case (k, v) => f"$k $v%.3f s" }.mkString(", ")) ++
        e2eLines ++
        (if (a.trace) perLayer.toSeq.map { case (k, v) => f"$k%-34s = $v%.4f ${PerLayer(k)}" } else Nil) ++
        Seq(f"${"failed_share"}%-17s = ${Stats.ratio(failures.size, checked.size)}%.4f ratio (${failures.size} failed of ${checked.size} runs attempted)") ++
        failures.map { case (o, ps) => s"FAILED ${o.spec.id}: ${ps.mkString("; ")}" } ++ notes ++
        tables.map(_ => s"table check: every run compared with bench-results/tableIII.tsv and tableIV.tsv").toSeq
      val record = ListMap(
        "env"      -> env,
        "setup_s"  -> setup.seconds,
        "end_to_end" -> e2e,
        "per_layer"  -> perLayer,
        "notes"    -> notes,
        "runs"     -> checked.map { case (o, ps) => ListMap(
          "run" -> o.spec.id, "run_s" -> o.runNs / 1e9, "alloc_bytes" -> o.allocBytes,
          "evaluated" -> o.ok.map(_.evaluated), "generated" -> o.ok.map(_.generated),
          "score" -> o.ok.map(_.score), "problems" -> ps) },
        "spans"    -> tracer.all.map(s => ListMap("id" -> s.id, "name" -> s.name, "parent" -> s.parent,
          "run" -> s.run, "start_ns" -> s.startNs, "end_ns" -> s.endNs)),
      )
      val f  = new File(a.out, s"${a.workload}-${a.scale.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}.json")
      val pw = new PrintWriter(f, "UTF-8")
      try pw.println(json(record)) finally pw.close()
      Report(failures.isEmpty, checked.size, failures.size, metrics, units, lines :+ s"record written to ${f.getPath}")
    } finally setup.spark.stop()
  }

  /** Per-layer metrics of a traced run, plus the grid iteration that the
    * serial workloads run as a probe (its runs join the correctness gate).
    */
  private def probes(w: Workload, setup: Setup, its: Seq[Iteration], baseline: Iteration,
                     tracer: Tracer): (ListMap[String, Double], Option[Iteration]) = {
    val last = its.last
    val runs = last.runs.flatMap(o => o.ok.map(o -> _))
    val (gridIt, serialNs, gridProbe) =
      if (w.grid) {
        val longest = last.runs.maxBy(_.runNs)
        val serial  = tracer.span("eval.serial_rerun", longest.spec.id)(
          Runner.runOne(longest.spec, if (longest.spec.isEafe) setup.models.get(longest.spec.cfg.hashVariant) else None))
        (last, Map(longest.spec.id -> serial.runNs.toDouble), None)
      } else {
        val g = tracer.span("eval.grid_probe")(Runner.grid(w, setup, tracer))
        (g, last.runs.map(o => o.spec.id -> o.runNs.toDouble).toMap, Some(g))
      }
    val traced = Stats.median(its.map(_.wallNs.toDouble))
    val m = Layers.engine(its) ++
      tracer.span("probe.core_ml")(Layers.coreAndMl(runs, 2)) ++
      tracer.span("probe.policy")(Layers.policy(w.runs.head.cfg.seed, 200)) ++
      tracer.span("probe.hash_fpe")(Layers.hashAndFpe(Layers.probeColumn(w), setup, 20)) ++
      Layers.fpeSetup(setup) ++
      tracer.span("probe.data")(Layers.data(w, setup, 3)) ++
      ListMap("eval.spark_session_s" -> setup.seconds("eval.spark_session_s")) ++
      Layers.grid(gridIt, setup.nproc, serialNs) ++
      ListMap("trace.overhead_share" -> (traced / baseline.wallNs - 1))
    (ListMap(PerLayer.keys.toSeq.map(k => k -> m(k)): _*), gridProbe)
  }

  /** Exits explicitly: Spark can leave non-daemon threads behind. */
  def main(args: Array[String]): Unit = {
    val report =
      try run(parse(args))
      catch {
        case e: Throwable =>
          e.printStackTrace()
          sys.exit(1)
      }
    report.lines.foreach(println)
    println(report.resultLine)
    System.out.flush()
    sys.exit(0)
  }
}
