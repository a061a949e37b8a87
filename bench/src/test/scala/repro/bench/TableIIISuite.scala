package repro.bench

import repro.SparkSpec
import repro.eval.{BenchResults, BenchTables, Column}

/** Table III — the 11-method comparison on the 36 target datasets. */
class TableIIISuite extends SparkSpec {

  private lazy val b = BenchResults(spark)

  private def mean(c: Column): Double =
    b.datasets.map(ds => b.grid((ds, c)).score).sum / b.datasets.size

  test("Table III: print method comparison on 36 datasets") {
    println()
    println("TABLE III: comparison results on 36 target datasets (F1 / 1-rae)")
    println(BenchTables.tableIII(b))
    println()
    println("column means: " + Column.all.map(c => f"${c.header}=${mean(c)}%.3f").mkString("  "))
  }

  test("Table III shape: E-AFE matches or beats NFS on average") {
    val eafe = mean(Column.Eafe)
    val nfs  = mean(Column.Nfs)
    assert(eafe >= nfs - 0.01, f"E-AFE=$eafe%.3f NFS=$nfs%.3f")
  }

  test("Table III shape: NFS beats random generation (AutoFS_R) on average") {
    assert(mean(Column.Nfs) >= mean(Column.FsR) - 0.015,
      f"NFS=${mean(Column.Nfs)}%.3f FS_R=${mean(Column.FsR)}%.3f")
  }

  test("Table III shape: the DNN baseline is the weakest column") {
    val dln = mean(Column.DlN)
    Seq(Column.FsR, Column.Nfs, Column.Eafe).foreach { c =>
      assert(dln < mean(c), f"DL_N=$dln%.3f vs ${c.header}=${mean(c)}%.3f")
    }
  }

  test("Table III shape: DNN collapses (≤0.3) on at least one tiny dataset") {
    val tiny = Seq("labor", "fertility", "hepatitis", "lymph")
    val collapsed = tiny.map(ds => b.grid((ds, Column.DlN)).score)
    assert(collapsed.exists(_ <= 0.6), s"dln on tiny datasets: $collapsed")
  }

  test("Table III shape: hash variants agree within noise (Q6)") {
    val variants = Seq(Column.Eafe, Column.EafeI, Column.EafeP, Column.EafeL).map(mean)
    assert(variants.max - variants.min < 0.05,
      s"variant means spread too far: $variants")
  }

  test("Table III shape: full E-AFE is at least as good as its ablations") {
    val eafe = mean(Column.Eafe)
    assert(eafe >= mean(Column.EafeD) - 0.015, f"vs E-AFE_D=${mean(Column.EafeD)}%.3f")
    assert(eafe >= mean(Column.EafeR) - 0.015, f"vs E-AFE_R=${mean(Column.EafeR)}%.3f")
  }

  test("Table III sanity: every score is a valid metric value") {
    b.grid.values.foreach { r =>
      assert(r.score >= 0.0 && r.score <= 1.0, s"${r.dataset}/${r.method}: ${r.score}")
    }
  }

  test("Table III sanity: RL methods never fall below their raw baseline") {
    for (ds <- b.datasets; c <- Seq(Column.FsR, Column.Nfs, Column.EafeR, Column.EafeD, Column.Eafe)) {
      val r = b.grid((ds, c))
      assert(r.score >= r.baseScore, s"$ds/${c.header}: ${r.score} < base ${r.baseScore}")
    }
  }
}
