package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.BenchResults
import repro.eval.BenchTables.{tableI, tableIII, tableIV, tableV, tableVI}

/** A spark-submit entry point for one paper table: builds the shared grid in
  * a session named `name`, then prints `title` and the table.
  */
abstract class TableJob(name: String, title: String, table: BenchResults => String) {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    println(title)
    println(table(BenchResults(spark)))
    spark.stop()
  }
}

/** Table I — NFS one-epoch time breakdown (generation vs evaluation). */
object TableIJob extends TableJob("table-i", "TABLE I: one NFS epoch — time breakdown", tableI)

/** Table III — method comparison on the 36 target datasets. */
object TableIIIJob
    extends TableJob("table-iii", "TABLE III: comparison results on 36 target datasets", tableIII)

/** Table IV — downstream feature-evaluation counts. */
object TableIVJob extends TableJob("table-iv", "TABLE IV: feature evaluation counts per run", tableIV)

/** Table V — downstream-task swap (SVM / NB-GP / MLP). */
object TableVJob extends TableJob("table-v", "TABLE V: replaced downstream tasks", tableV)

/** Table VI — significance of the improvements. */
object TableVIJob extends TableJob("table-vi", "TABLE VI: p-values of E-AFE vs baselines", tableVI(_)._1)
