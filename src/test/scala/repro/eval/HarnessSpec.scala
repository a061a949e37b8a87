package repro.eval

import repro.ParallelismSpec.bits
import repro.SparkSpec
import repro.core.{EngineSpec, Method, MethodConfig}
import repro.ml.CrossVal

class HarnessSpec extends SparkSpec {

  test("prepare caps wide datasets at MaxBaseFeatures via RF importance") {
    val d = Harness.prepare("sonar") // paper 60 features → capped
    assert(d.nFeatures <= Harness.MaxBaseFeatures)
    assert(d.classification)
  }

  test("prepare leaves narrow datasets untouched") {
    val d = Harness.prepare("credit-a") // 6 features
    assert(d.nFeatures === 6)
  }

  test("prepare is cached (same instance back)") {
    assert(Harness.prepare("credit-a") eq Harness.prepare("credit-a"))
  }

  test("runRl produces a RunResult wired to the prepared dataset") {
    val cfg = MethodConfig("nfs", stage1Epochs = 0, stage2Epochs = 1, T = 2,
      rfTrees = 4, rfDepth = 4, evalSampleCap = 120, seed = 2)
    val r = Harness.runRl("credit-a", cfg, None, None)
    assert(r.dataset === "credit-a")
    assert(r.score >= r.baseScore && r.score <= 1.0)
  }

  test("every RL method reports the feature set whose CV gave its score (Airfoil)") {
    Method.all.foreach { m =>
      val cfg = MethodConfig(m.name)
      val r   = Harness.runRl("Airfoil", cfg, Option.when(m.usesFpe)(EngineSpec.fpe), None)
      // The run's evaluation rows, with its selected programs as the features.
      val rows     = Harness.prepare("Airfoil").subsample(cfg.evalSampleCap, cfg.seed)
      val rescored = CrossVal.forest(Harness.programs(rows, r.selectedKeys),
        cfg.rfTrees, cfg.rfDepth, cfg.folds, cfg.seed)
      assert(bits(rescored) === bits(r.score), s"${m.name}: reported ${r.score}, re-scored $rescored")
    }
  }

  test("runDlN trains ResNet→RF on a pre-split and scores in [0,1]") {
    val r = Harness.runDlN("fertility", seed = 1)
    assert(r.method === "dln")
    assert(r.score >= 0.0 && r.score <= 1.0)
  }

  test("runFeDl consumes selected feature programs") {
    val keys = Seq("f0", "f1", "add(f0,f1)")
    val r    = Harness.runFeDl("credit-a", keys, seed = 1)
    assert(r.method === "fe_dl")
    assert(r.selectedKeys === keys)
    assert(r.score >= 0.0 && r.score <= 1.0)
  }

  test("runDlFe selects over deep features with RF CV") {
    val r = Harness.runDlFe("fertility", seed = 1)
    assert(r.method === "dl_fe")
    assert(r.evaluated > 1)
    assert(r.score >= 0.0 && r.score <= 1.0)
  }

  test("runDlFe's subset search is pinned on fertility") {
    val r = Harness.runDlFe("fertility", seed = 1)
    assert(r.evaluated === 9)
    assert(math.abs(r.score - 0.6837606837606837) <= 1e-12)
  }

  test("reEvaluate swaps the downstream model on classification datasets") {
    for (m <- Swap.all) {
      val s = Harness.reEvaluate("credit-a", Seq("f0", "f1", "mul(f0,f1)"), m, seed = 1)
      assert(s >= 0.0 && s <= 1.0, s"$m → $s")
    }
  }

  test("reEvaluate swaps the downstream model on regression datasets") {
    for (m <- Swap.all) {
      val s = Harness.reEvaluate("Airfoil", Seq("f0", "f1", "f2"), m, seed = 1)
      assert(s >= 0.0 && s <= 1.0, s"$m → $s")
    }
  }

  test("reEvaluate with empty keys falls back to the raw features") {
    val s = Harness.reEvaluate("credit-a", Seq.empty, Swap.NbGp, seed = 1)
    assert(s >= 0.0 && s <= 1.0)
  }
}
