package repro.core

import repro.ParallelismSpec.bits
import repro.SparkSpec
import repro.data.{DatasetRegistry, SyntheticTabular}
import repro.fpe.{FpeLabeler, FpeModel}
import repro.hash.HashVariant

class EngineSpec extends SparkSpec {
  import EngineSpec._

  test("NFS run returns a score at least as good as the raw baseline") {
    val r = new Engine(data, tinyCfg("nfs"), None, None).run()
    assert(r.score >= r.baseScore)
    assert(r.method === "nfs")
  }

  test("runs are deterministic in the seed") {
    val a = new Engine(data, tinyCfg("nfs"), None, None).run()
    val b = new Engine(data, tinyCfg("nfs"), None, None).run()
    assert(a.score === b.score)
    assert(a.generated === b.generated && a.evaluated === b.evaluated)
    assert(a.selectedKeys === b.selectedKeys)
  }

  test("Spark-parallel candidate evaluation matches the sequential path") {
    val seq = new Engine(data, tinyCfg("nfs"), None, None).run()
    val par = new Engine(data, tinyCfg("nfs"), None, Some(spark)).run()
    assert(seq.score === par.score)
    assert(seq.evaluated === par.evaluated)
    assert(seq.selectedKeys === par.selectedKeys)
  }

  test("learning curve is monotone non-decreasing (best-so-far)") {
    val r = new Engine(data, tinyCfg("nfs"), None, None).run()
    r.curve.sliding(2).foreach {
      case Seq(a, b) => assert(b >= a)
      case _         =>
    }
    assert(r.curve.length === tinyCfg("nfs").totalEpochs)
  }

  test("selected keys parse back into valid programs and include candidates within order cap") {
    val r = new Engine(data, tinyCfg("nfs"), None, None).run()
    r.selectedKeys.foreach { k =>
      val e = FeatExpr.parse(k)
      assert(e.order <= tinyCfg("nfs").maxOrder)
    }
    // all raw features remain in the state
    (0 until data.nFeatures).foreach(i => assert(r.selectedKeys.contains(s"f$i")))
  }

  test("E-AFE evaluates fewer features downstream than NFS") {
    val nfs  = new Engine(data, tinyCfg("nfs"), None, None).run()
    val eafe = new Engine(data, tinyCfg("eafe"), Some(fpe), None).run()
    assert(eafe.evaluated < nfs.evaluated,
      s"eafe=${eafe.evaluated} nfs=${nfs.evaluated}")
  }

  test("unknown method names fail at construction") {
    Seq("eafe:ccws", "typo").foreach(m => intercept[RuntimeException](MethodConfig(m)))
  }

  test("every method reproduces its pinned run") {
    val raw = Seq("f0", "f1", "f2", "f3", "f4")
    val b   = 0.7906305580724186 // raw-feature baseline score
    // (method, evaluated, generated, selected keys after the raw ones, curve, score)
    val golden = Seq(
      ("nfs", 21, 20, Seq("mmn(f4)"), Seq(b, 0.7957314553059235), 0.7957314553059235),
      ("fsr", 31, 20, Seq("sqrt(f0)", "mul(f1,f1)", "mul(f2,f2)", "mmn(f3)", "sqrt(f4)", "log(f0)",
        "sqrt(mul(f1,f1))", "sqrt(f3)", "mul(f4,sqrt(f4))", "mmn(mul(f1,f1))", "recip(f2)",
        "add(f0,log(f0))", "sub(sqrt(mul(f1,f1)),mmn(mul(f1,f1)))"), Seq(b, b), 0.7990125816212773),
      ("eafe", 13, 30, Seq(), Seq(b, b, b), b),
      ("eafe_d", 7, 19, Seq(), Seq(b, b), b),
      ("eafe_r", 15, 20, Seq(), Seq(b, b), b),
    )
    golden.foreach { case (m, evaluated, generated, extra, curve, score) =>
      val cfg = tinyCfg(m)
      val r   = new Engine(data, cfg, Option.when(cfg.kind.usesFpe)(fpe), None).run()
      withClue(s"$m: ") {
        assert(r.evaluated === evaluated && r.generated === generated)
        assert(r.selectedKeys === raw ++ extra)
        assert(r.curve.length === curve.length)
        r.curve.zip(curve).foreach { case (got, want) => assert(math.abs(got - want) <= 1e-12) }
        assert(math.abs(r.score - score) <= 1e-12)
      }
    }
  }

  test("NFS and E-AFE reproduce their pinned runs on the regression fixture") {
    val nfsBest  = 0.05705868585216737
    val eafeBest = 0.04353354743088652
    // (method, evaluated, generated, curve, score); the raw features score 0.0
    val golden = Seq(
      ("nfs", 17, 16, Seq(nfsBest, nfsBest), nfsBest),
      ("eafe", 14, 24, Seq(0.0, eafeBest, eafeBest), eafeBest),
    )
    golden.foreach { case (m, evaluated, generated, curve, score) =>
      val cfg = tinyCfg(m)
      val r   = new Engine(reg, cfg, Option.when(cfg.kind.usesFpe)(fpe), None).run()
      withClue(s"$m: ") {
        assert(r.evaluated === evaluated && r.generated === generated)
        assert(bits(r.baseScore) === bits(0.0))
        assert(r.curve.map(bits) === curve.map(bits))
        assert(bits(r.score) === bits(score))
      }
    }
  }

  test("FPE counters: E-AFE pre-evaluates every generated candidate, NFS none") {
    val eafe = new Engine(data, tinyCfg("eafe"), Some(fpe), None).run()
    val nfs  = new Engine(data, tinyCfg("nfs"), None, None).run()
    assert(eafe.preEvaluated === eafe.generated)
    assert(eafe.preMs > 0.0)
    assert(nfs.preEvaluated === 0L && nfs.preMs === 0.0)
  }

  test("E-AFE without an FPE model is rejected") {
    intercept[IllegalArgumentException] {
      new Engine(data, tinyCfg("eafe"), None, None)
    }
  }

  test("an FPE method whose hash variant differs from its FPE model's is rejected") {
    intercept[IllegalArgumentException] {
      new Engine(data, MethodConfig("eafe", hashVariant = "icws"), Some(fpe), None)
    }
  }

  test("E-AFE_D drops roughly half of the candidates") {
    val nfs = new Engine(data, tinyCfg("nfs"), None, None).run()
    val d   = new Engine(data, tinyCfg("eafe_d"), None, None).run()
    assert(d.evaluated < nfs.evaluated)
  }

  test("E-AFE_R (flat policy gradient + FPE) runs and reports the hash variant") {
    val r = new Engine(data, tinyCfg("eafe_r"), Some(fpe), None).run()
    assert(r.score >= r.baseScore * 0.9)
    assert(r.hashVariant === "ccws")
  }

  test("AutoFS_R (random generation) evaluates at least as many features as NFS") {
    val nfs = new Engine(data, tinyCfg("nfs"), None, None).run()
    val fsr = new Engine(data, tinyCfg("fsr"), None, None).run()
    assert(fsr.evaluated >= nfs.evaluated,
      s"fsr=${fsr.evaluated} nfs=${nfs.evaluated}")
  }

  test("counters: generation time is far below evaluation time (Table I shape)") {
    val r = new Engine(data, tinyCfg("nfs"), None, None).run()
    assert(r.genMs < r.evalMs, s"gen=${r.genMs}ms eval=${r.evalMs}ms")
    assert(r.evalMs > 0)
  }

  test("regression datasets run through the same engine") {
    val r = new Engine(reg, tinyCfg("nfs"), None, None).run()
    assert(r.score >= 0.0 && r.score <= 1.0)
    assert(r.score >= r.baseScore)
  }
}

/** The engine fixtures, which `ParallelismSpec` shares. */
object EngineSpec {
  lazy val data = SyntheticTabular.generate(
    SyntheticTabular.Spec("engine-ds", 200, 5, classification = true, seed = 21))

  lazy val reg = SyntheticTabular.generate(
    SyntheticTabular.Spec("engine-reg", 180, 4, classification = false, seed = 22))

  lazy val fpe: FpeModel.Trained = {
    val labeled = FpeLabeler.labelAllWithGenerated(DatasetRegistry.publicPretrain(6),
      FpeLabeler.Config(rfTrees = 5, rfDepth = 5), genPerDataset = 0)
    FpeModel.trainBest(labeled, variants = Seq(HashVariant.CCWS), dims = Seq(16), seed = 1)
  }

  def tinyCfg(method: String): MethodConfig = MethodConfig(
    method, stage1Epochs = 1, stage2Epochs = 2, T = 2,
    rfTrees = 4, rfDepth = 4, evalSampleCap = 150, seed = 5)
}
