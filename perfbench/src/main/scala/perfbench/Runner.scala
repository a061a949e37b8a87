package perfbench

import repro.core.RunResult
import repro.eval.Harness
import repro.fpe.FpeModel
import scala.util.control.NonFatal

/** One run as the benchmark saw it. `runNs` and `allocBytes` cover the
  * `Harness.runRl` call on the thread that made it; `taskNs` covers the
  * whole Spark task body in a grid (equal to `runNs` when serial). Stamps
  * are this JVM's `System.nanoTime`, shared by local-mode Spark tasks.
  */
final case class RunOutcome(
    spec: RunSpec,
    result: Either[String, RunResult],
    startNs: Long,
    runNs: Long,
    taskStartNs: Long,
    taskNs: Long,
    allocBytes: Long,
) {
  def ok: Option[RunResult] = result.toOption
}

/** One closed-loop pass over a workload's runs. */
final case class Iteration(startNs: Long, wallNs: Long, runs: Seq[RunOutcome])

object Runner {

  /** One `Harness.runRl` call, timed and with its allocation counted. */
  def runOne(spec: RunSpec, fpe: Option[FpeModel.Trained]): RunOutcome = {
    val a0 = Stats.allocatedBytes()
    val t0 = System.nanoTime()
    val r =
      try Right(Harness.runRl(spec.dataset, spec.cfg, fpe, None))
      catch { case NonFatal(e) => Left(e.toString) }
    val t1 = System.nanoTime()
    RunOutcome(spec, r, t0, t1 - t0, t0, t1 - t0, Stats.allocatedBytes() - a0)
  }

  private def fpeFor(spec: RunSpec, models: Map[String, FpeModel.Trained]): Option[FpeModel.Trained] =
    if (spec.isEafe) models.get(spec.cfg.hashVariant) else None

  /** The runs one after another on the calling thread. */
  def serial(w: Workload, setup: Setup, tracer: Tracer): Iteration = tracer.span("iteration") {
    val t0   = System.nanoTime()
    val runs = w.runs.map(spec => tracer.span("core.run", spec.id)(runOne(spec, fpeFor(spec, setup.models))))
    Iteration(t0, System.nanoTime() - t0, runs)
  }

  /** The runs as one Spark job with one task per run, as `BenchResults.gridA`
    * submits them; the makespan is the iteration's wall time.
    */
  def grid(w: Workload, setup: Setup, tracer: Tracer): Iteration = tracer.span("iteration") {
    val sc     = setup.spark.sparkContext
    val models = sc.broadcast(setup.models)
    val t0     = System.nanoTime()
    val runs = sc
      .parallelize(w.runs, w.runs.size)
      .map { spec =>
        val ts  = System.nanoTime()
        val out = runOne(spec, fpeFor(spec, models.value))
        out.copy(taskStartNs = ts, taskNs = System.nanoTime() - ts)
      }
      .collect()
      .toSeq
    val wall = System.nanoTime() - t0
    models.destroy()
    runs.foreach { o =>
      val task = tracer.record("eval.task", o.spec.id, o.taskStartNs, o.taskStartNs + o.taskNs)
      tracer.record("core.run", o.spec.id, o.startNs, o.startNs + o.runNs, parent = task)
    }
    Iteration(t0, wall, runs)
  }

  def iteration(w: Workload, setup: Setup, tracer: Tracer): Iteration =
    if (w.grid) grid(w, setup, tracer) else serial(w, setup, tracer)

  /** Closed loop: keeps starting iterations while another median-length one
    * still fits in `seconds`; always at least one.
    */
  def measure(w: Workload, setup: Setup, tracer: Tracer, seconds: Double): Seq[Iteration] = {
    val start = System.nanoTime()
    val its   = scala.collection.mutable.ArrayBuffer.empty[Iteration]
    do its += iteration(w, setup, tracer)
    while ((System.nanoTime() - start) / 1e9 + Stats.median(its.map(_.wallNs / 1e9).toSeq) <= seconds)
    its.toSeq
  }
}
