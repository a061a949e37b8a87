package repro.bench

import repro.SparkSpec
import repro.eval.{BenchResults, BenchTables, Column, Swap}

/** Table V — the selected features are robust to swapping the downstream
  * model (SVM / NB·GP / MLP): E-AFE's features keep winning.
  */
class TableVSuite extends SparkSpec {

  private lazy val b = BenchResults(spark)

  private def mean(c: Column, swap: Swap): Double =
    b.datasets.map(ds => b.tableVScores((ds, c, swap))).sum / b.datasets.size

  test("Table V: print downstream-task swap results") {
    println()
    println("TABLE V: selected features re-evaluated under SVM / NB-GP / MLP")
    println(BenchTables.tableV(b))
    println()
    for (swap <- Swap.all)
      println(s"${swap.header} means: " +
        BenchTables.tableVColumns.map(c => f"${c.header}=${mean(c, swap)}%.3f").mkString(" "))
  }

  test("Table V shape: E-AFE's features beat AutoFS_R's under every swap model") {
    for (swap <- Swap.all) {
      assert(mean(Column.Eafe, swap) >= mean(Column.FsR, swap) - 0.01,
        f"$swap: E-AFE=${mean(Column.Eafe, swap)}%.3f FS_R=${mean(Column.FsR, swap)}%.3f")
    }
  }

  test("Table V shape: E-AFE's features at least match NFS's under every swap model") {
    for (swap <- Swap.all) {
      assert(mean(Column.Eafe, swap) >= mean(Column.Nfs, swap) - 0.02,
        f"$swap: E-AFE=${mean(Column.Eafe, swap)}%.3f NFS=${mean(Column.Nfs, swap)}%.3f")
    }
  }

  test("Table V sanity: all swap scores are valid metric values") {
    b.tableVScores.foreach { case (k, s) =>
      assert(s >= 0.0 && s <= 1.0, s"$k → $s")
    }
  }
}
