package repro.eval

import java.io.File
import java.net.URLClassLoader
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Method
import scala.io.Source

/** The table layouts against the committed TSVs' headers, and the Table V
  * swaps' learners; none of it needs a grid run.
  */
class BenchTablesSpec extends AnyFunSuite {

  private def header(table: String): Seq[String] = {
    val src = Source.fromFile(s"bench-results/$table.tsv", "UTF-8")
    try src.getLines().next().split('\t').toSeq finally src.close()
  }

  test("Table III's columns are the committed header's method columns, in order") {
    assert(Column.all.map(_.header) === header("tableIII").drop(3))
  }

  test("Table IV's columns are the committed header after Dataset") {
    assert(BenchTables.tableIVColumns.map(_.header) === header("tableIV").tail)
  }

  test("Table V's header is the committed one") {
    assert(BenchTables.tableVHeader === header("tableV"))
  }

  test("every swap's learner matches the task type") {
    for (swap <- Swap.all; classification <- Seq(true, false))
      assert(swap.learner(classification, 1L).isClassifier === classification, s"$swap/$classification")
  }

  test("Column and Method list every case whichever case a JVM touches first") {
    // A fresh loader, so this JVM's already initialized objects do not hide the order.
    val urls   = sys.props("java.class.path").split(File.pathSeparator).map(new File(_).toURI.toURL)
    val loader = new URLClassLoader(urls, ClassLoader.getPlatformClassLoader)
    try {
      Class.forName("repro.eval.Column$Eafe$", true, loader)
      def all(obj: String) = {
        val module = loader.loadClass(obj).getField("MODULE$").get(null)
        module.getClass.getMethod("all").invoke(module).toString
      }
      assert(all("repro.eval.Column$") === Column.all.toString)
      assert(all("repro.core.Method$") === Method.all.toString)
    } finally loader.close()
  }
}
