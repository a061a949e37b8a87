package repro.bench

import repro.SparkSpec
import repro.eval.{BenchResults, BenchTables, Column}

/** Table IV — downstream feature-evaluation counts: the paper's efficiency
  * claim in its purest form (E-AFE evaluates <50–60% of NFS's features).
  */
class TableIVSuite extends SparkSpec {

  private lazy val b = BenchResults(spark)

  private def total(c: Column): Long =
    b.datasets.map(ds => b.grid((ds, c)).evaluated).sum

  test("Table IV: print feature-evaluation counts") {
    println()
    println("TABLE IV: downstream feature evaluations per run")
    println(BenchTables.tableIV(b))
    println()
    println("totals: " + BenchTables.tableIVColumns.map(c => s"${c.header}=${total(c)}").mkString(" "))
  }

  test("Table IV shape: E-AFE evaluates under 60%% of NFS's features in total") {
    val ratio = total(Column.Eafe).toDouble / total(Column.Nfs)
    assert(ratio < 0.6, f"E-AFE/NFS evaluation ratio $ratio%.2f — paper reports <0.5")
  }

  test("Table IV shape: E-AFE_D (random 50%% dropout) evaluates roughly half of NFS") {
    val ratio = total(Column.EafeD).toDouble / total(Column.Nfs)
    assert(ratio > 0.3 && ratio < 0.75, f"E-AFE_D/NFS ratio $ratio%.2f")
  }

  test("Table IV shape: random generation (FS_R) evaluates the most features") {
    assert(total(Column.FsR) >= total(Column.Nfs),
      s"FS_R=${total(Column.FsR)} NFS=${total(Column.Nfs)}")
  }

  test("Table IV shape: the ordering holds on most individual datasets too") {
    val ok = b.datasets.count { ds =>
      b.grid((ds, Column.Eafe)).evaluated < b.grid((ds, Column.Nfs)).evaluated
    }
    assert(ok >= (b.datasets.size * 0.8).toInt, s"E-AFE < NFS on only $ok/36 datasets")
  }
}
