package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.{BenchResults, BenchTables}

/** Shared session factory for the spark-submit entrypoints. */
object JobSession {
  def apply(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

/** Table I — NFS one-epoch time breakdown (generation vs evaluation). */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("table-i")
    println("TABLE I: one NFS epoch — time breakdown")
    println(BenchTables.tableI(BenchResults(spark)))
    spark.stop()
  }
}

/** Table III — method comparison on the 36 target datasets. */
object TableIIIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("table-iii")
    println("TABLE III: comparison results on 36 target datasets")
    println(BenchTables.tableIII(BenchResults(spark)))
    spark.stop()
  }
}

/** Table IV — downstream feature-evaluation counts. */
object TableIVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("table-iv")
    println("TABLE IV: feature evaluation counts per run")
    println(BenchTables.tableIV(BenchResults(spark)))
    spark.stop()
  }
}

/** Table V — downstream-task swap (SVM / NB-GP / MLP). */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("table-v")
    println("TABLE V: replaced downstream tasks")
    println(BenchTables.tableV(BenchResults(spark)))
    spark.stop()
  }
}

/** Table VI — significance of the improvements. */
object TableVIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("table-vi")
    println("TABLE VI: p-values of E-AFE vs baselines")
    println(BenchTables.tableVI(BenchResults(spark))._1)
    spark.stop()
  }
}
