package repro.jobs

import java.lang.reflect.Modifier
import org.scalatest.funsuite.AnyFunSuite

/** The table jobs are `runMain` / spark-submit entry points: each class needs
  * a public static `main(Array[String])`.
  */
class JobsSpec extends AnyFunSuite {

  for (table <- Seq("I", "III", "IV", "V", "VI"))
    test(s"Table${table}Job has a public static main(Array[String])") {
      val main = Class.forName(s"repro.jobs.Table${table}Job").getMethod("main", classOf[Array[String]])
      assert(Modifier.isPublic(main.getModifiers) && Modifier.isStatic(main.getModifiers))
      assert(main.getReturnType === Void.TYPE)
    }
}
