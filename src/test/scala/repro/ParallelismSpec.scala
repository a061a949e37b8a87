package repro

import java.util.concurrent.{Callable, ForkJoinPool}
import java.util.concurrent.atomic.AtomicInteger
import repro.core.{Engine, EngineSpec, RunResult}
import repro.data.DatasetRegistry
import repro.fpe.FpeLabeler
import repro.hash.{HashVariant, MinHashes}
import repro.ml.ForestGoldenSpec
import scala.util.Random

/** Results do not depend on how many threads compute them. Each value is
  * computed three ways and compared bit for bit (`doubleToLongBits`): on the
  * calling thread, which may use the common fork-join pool; inside a
  * one-thread `ForkJoinPool`, where any fork-join work runs serially; and
  * from four caller threads at once that share the common pool.
  */
class ParallelismSpec extends SparkSpec {
  import ParallelismSpec._

  /** `compute` three ways; every result must show as `expected` does. */
  private def assertSameEverywhere[T](what: String)(compute: => T)(show: T => Seq[Any]): Unit = {
    val expected = show(compute)
    assert(show(onOneThreadPool(compute)) === expected, s"$what: one-thread pool")
    fromCallers(4)(compute).zipWithIndex.foreach { case (r, i) =>
      assert(show(r) === expected, s"$what: caller thread $i of 4")
    }
  }

  test("FanOut.local returns results in input order when the work is uneven") {
    val items = (0 until 64).toVector
    // Early items take longest, so they tend to finish last.
    val f = (i: Int) => { Thread.sleep((64 - i) / 8); i * i }
    assert(FanOut.local(items)(f) === items.map(f))
    assert(onOneThreadPool(FanOut.local(items)(f)) === items.map(f))
    assert(FanOut.local(Seq.empty[Int])(f).isEmpty)
  }

  test("FanOut.local runs on the task's own thread inside a Spark task") {
    val threads = spark.sparkContext.parallelize(Seq(0), 1).map { _ =>
      val task = Thread.currentThread.getId
      FanOut.local(0 until 16)(_ => Thread.currentThread.getId).toSet == Set(task)
    }.collect()
    assert(threads.toSeq === Seq(true))
  }

  ForestGoldenSpec.cases.foreach { c =>
    test(s"${c.name}: CrossVal.score with the engine's forest is the same on any thread count") {
      assertSameEverywhere("cv")(ForestGoldenSpec.cv(c, 1L))(s => Seq(bits(s)))
    }
    test(s"${c.name}: RandomForest predictions and importances are the same on any thread count") {
      assertSameEverywhere("forest")(ForestGoldenSpec.forest(c).fit(c.x, c.y)) { m =>
        m.predictAll(c.probe).toSeq.map(bits) ++ m.predictAll(c.x).toSeq.map(bits) ++
          m.importances.toSeq.map(bits)
      }
    }
  }

  private def showRun(r: RunResult): Seq[Any] =
    Seq(r.dataset, r.method, r.hashVariant, bits(r.baseScore), bits(r.score), r.generated,
      r.evaluated, r.preEvaluated, r.selectedKeys) ++ r.curve.map(bits)

  Seq("nfs", "eafe").foreach { m =>
    test(s"an Engine $m run is the same on any thread count") {
      val cfg   = EngineSpec.tinyCfg(m)
      val model = Option.when(cfg.kind.usesFpe)(EngineSpec.fpe)
      assertSameEverywhere(m)(new Engine(EngineSpec.data, cfg, model, None).run())(showRun)
    }
  }

  test("MinHash signatures are the same while four threads grow a fresh seed's draws") {
    val seed    = 4242L // no other test hashes with it, so its draws tables start empty here
    val rng     = new Random(3)
    val columns = Seq(3, 17, 48, 100, 257, 600, 601, 999, 1500).map(Array.fill(_)(rng.nextGaussian()))
    val cases   = for (c <- columns.indices; v <- HashVariant.all; d <- Seq(16, 48)) yield (c, v, d)
    def hash(c: Int, v: HashVariant, d: Int) = MinHashes.signature(columns(c), d, v, seed).toSeq.map(bits)
    // Each thread takes the cases, and so the column lengths, in its own order.
    val next     = new AtomicInteger(0)
    val byThread = fromCallers(4) {
      new Random(next.getAndIncrement()).shuffle(cases).map { case k @ (c, v, d) => k -> hash(c, v, d) }.toMap
    }
    val serial = cases.map { case k @ (c, v, d) => k -> hash(c, v, d) }.toMap
    byThread.zipWithIndex.foreach { case (m, i) => assert(m === serial, s"caller thread $i of 4") }
  }

  test("FPE labels without a Spark session are the same on any thread count") {
    assertSameEverywhere("labels")(
      FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(6),
        FpeLabeler.Config(rfTrees = 5, rfDepth = 5), genPerDataset = 2, spark = None)
    )(_.flatMap(l => Seq(l.dataset, l.featureIdx, l.label, bits(l.gain)) ++ l.values.toSeq.map(bits)))
  }
}

object ParallelismSpec {
  def bits(d: Double): Long = java.lang.Double.doubleToLongBits(d)

  /** `body` run as a task of a new one-thread `ForkJoinPool`: fork-join work
    * it starts stays in that pool, so it runs on one thread.
    */
  def onOneThreadPool[T](body: => T): T = {
    val pool = new ForkJoinPool(1)
    try pool.submit(new Callable[T] { def call(): T = body }).get()
    finally pool.shutdown()
  }

  /** `body` run by `k` new threads started together; their results in thread order. */
  def fromCallers[T](k: Int)(body: => T): Seq[T] = {
    val out = new Array[Any](k)
    val err = new Array[Throwable](k)
    val threads = Array.tabulate(k) { i =>
      new Thread(() => try out(i) = body catch { case t: Throwable => err(i) = t })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    err.find(_ != null).foreach(throw _)
    out.toSeq.map(_.asInstanceOf[T])
  }
}
