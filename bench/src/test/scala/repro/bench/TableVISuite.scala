package repro.bench

import repro.SparkSpec
import repro.eval.{BenchResults, BenchTables, Column}

/** Table VI — significance of the improvement: efficiency gains are strongly
  * significant; the effectiveness gain over NFS is incremental (the paper's
  * own p=0.18 finding).
  */
class TableVISuite extends SparkSpec {

  private lazy val b      = BenchResults(spark)
  private lazy val result = BenchTables.tableVI(b)

  test("Table VI: print p-values of E-AFE vs baselines") {
    println()
    println("TABLE VI: paired-t p-values (performance and time), E-AFE vs baselines")
    println(result._1)
  }

  test("Table VI shape: the time improvement over NFS is statistically significant") {
    val p = result._2(("time", Column.Nfs))
    assert(p < 0.05, f"time p-value vs NFS = $p%.3g")
  }

  test("Table VI shape: the time improvement over AutoFS_R is statistically significant") {
    val p = result._2(("time", Column.FsR))
    assert(p < 0.05, f"time p-value vs AutoFS_R = $p%.3g")
  }

  test("Table VI shape: the performance improvement over RTDL_N is significant") {
    val p = result._2(("perf", Column.DlN))
    assert(p < 0.05, f"performance p-value vs RTDL_N = $p%.3g")
  }

  test("Table VI shape: E-AFE is actually faster than NFS, not just significantly different") {
    val eafe = b.datasets.map(ds => b.grid((ds, Column.Eafe)).totalMs).sum
    val nfs  = b.datasets.map(ds => b.grid((ds, Column.Nfs)).totalMs).sum
    assert(eafe < nfs, f"total E-AFE=${eafe / 1000}%.1fs NFS=${nfs / 1000}%.1fs")
    println(f"speedup vs NFS: ${nfs / eafe}%.2fx (paper: ≈2x)")
  }
}
