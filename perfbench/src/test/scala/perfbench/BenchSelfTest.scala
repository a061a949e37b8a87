package perfbench

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import java.io.File
import java.nio.file.Files
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{MethodConfig, RunResult}
import scala.jdk.CollectionConverters._

/** Runs every workload at tiny scale through the benchmark's own code and
  * checks what it prints, not how fast it ran: the result schema, that the
  * metric names and units are those BENCHMARK.json declares, that the
  * correctness gate passes, and that the paper tables are left untouched.
  * Also exercises the gate on hand-made failing runs.
  */
class BenchSelfTest extends AnyFunSuite {

  private val root   = new File("..").getCanonicalFile
  private val mapper = new ObjectMapper()
  private lazy val declared: JsonNode = mapper.readTree(new File(root, "BENCHMARK.json"))

  private def declaredUnits(key: String): Map[String, String] =
    declared.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toMap

  private def tablesDigest: String = {
    val md = MessageDigest.getInstance("SHA-256")
    Seq("tableIII.tsv", "tableIV.tsv").foreach(n => md.update(Files.readAllBytes(new File(root, s"bench-results/$n").toPath)))
    md.digest().map("%02x".format(_)).mkString
  }

  test("BENCHMARK.json declares the benchmark's workloads, metrics and units") {
    val timed = declared.get("workloads").elements().asScala.map(_.get("name").asText).toSeq
    assert(timed.nonEmpty && timed.forall(Workloads.names.contains))
    assert(declaredUnits("end_to_end") == Bench.EndToEnd)
    assert(declaredUnits("per_layer") == Bench.PerLayer)
    assert(declared.get("end_to_end").elements().asScala.forall(_.get("bound").asDouble <= 0.25))
  }

  for {
    w     <- Workloads.names
    trace <- Seq(false, true)
  } test(s"$w, tiny scale, trace=$trace: schema, metric names and units, gate") {
    val before = tablesDigest
    val out    = new File("target/selftest-out")
    val report = Bench.run(Bench.Args(w, seconds = 0, trace = trace, scale = Scale.Tiny, root = root, out = out))
    val json   = mapper.readTree(report.resultLine)
    assert(json.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
    assert(json.get("correct").asBoolean, report.lines.filter(_.startsWith("FAILED")).mkString("\n"))
    assert(json.get("attempted").asInt >= 1 && json.get("failed").asInt == 0)
    val expected = if (trace) Bench.PerLayer else Bench.EndToEnd
    val metrics  = json.get("metrics")
    assert(metrics.fieldNames().asScala.toSeq == expected.keys.toSeq)
    expected.foreach { case (name, unit) =>
      assert(metrics.get(name).get("unit").asText == unit, name)
      assert(metrics.get(name).get("value").isNumber, name)
    }
    if (!trace) expected.keys.foreach(k => assert(metrics.get(k).get("value").asDouble > 0, k))
    assert(tablesDigest == before, "bench-results tables changed")
  }

  // --- the gate on hand-made runs ---------------------------------------------

  private def outcome(ds: String, method: String, evaluated: Long, score: Double = 0.7,
                      keys: Seq[String] = Seq("f0"), stage2Epochs: Int = 1): RunOutcome = {
    val spec = RunSpec(ds, method, MethodConfig(method, stage2Epochs = stage2Epochs))
    val r    = RunResult(ds, method, "", 0.6, score, 10, evaluated, 1, 1, 2, keys, Seq(score))
    RunOutcome(spec, Right(r), 0L, 1L, 0L, 1L, 1L)
  }

  private def problems(runs: RunOutcome*)(implicit perDataset: Boolean = true): Seq[String] =
    Gate.check(Seq(Iteration(0L, 1L, runs)), None, perDataset).flatMap(_._2)

  test("the gate passes a sound iteration") {
    assert(problems(outcome("a", "nfs", 10, keys = Seq("f0", "log(f1)")), outcome("a", "eafe", 5)).isEmpty)
  }

  test("the gate fails bad scores, keys, stage-1 counts and thrown runs") {
    assert(problems(outcome("a", "nfs", 10, score = Double.NaN)).exists(_.contains("not finite")))
    assert(problems(outcome("a", "nfs", 10, score = 0.5)).exists(_.contains("below base")))
    assert(problems(outcome("a", "nfs", 10, keys = Seq("nosuchop(f0)"))).exists(_.contains("does not parse")))
    val order6 = (1 to 6).foldLeft("f0")((k, _) => s"log($k)")
    assert(problems(outcome("a", "nfs", 10, keys = Seq(order6))).exists(_.contains("order above 5")))
    assert(problems(outcome("a", "eafe", 2, stage2Epochs = 0)).exists(_.contains("not 1")))
    val threw = outcome("a", "nfs", 1).copy(result = Left("boom"))
    assert(problems(threw).exists(_.contains("threw")))
  }

  test("the gate compares E-AFE with NFS per dataset or over the iteration") {
    val runs = Seq(outcome("a", "nfs", 10), outcome("a", "eafe", 12), outcome("b", "nfs", 30), outcome("b", "eafe", 10))
    assert(problems(runs: _*)(perDataset = true).exists(_.contains("not cheaper")))
    assert(problems(runs: _*)(perDataset = false).isEmpty)
    assert(problems(outcome("a", "nfs", 10), outcome("a", "eafe", 10))(perDataset = false).nonEmpty)
  }

  test("the gate fails a run that changes between iterations") {
    val a = Iteration(0L, 1L, Seq(outcome("a", "nfs", 10)))
    val b = Iteration(0L, 1L, Seq(outcome("a", "nfs", 11)))
    assert(Gate.check(Seq(a, b), None, perDataset = true).flatMap(_._2).exists(_.contains("differs from the first")))
  }

  test("the gate compares runs with the committed paper tables") {
    val tables = Gate.loadTables(root)
    val good   = outcome("PimaIndian", "nfs", 168, score = tables.scores(("PimaIndian", "NFS")).toDouble)
    def check(o: RunOutcome) = Gate.check(Seq(Iteration(0L, 1L, Seq(o))), Some(tables), perDataset = true).flatMap(_._2)
    assert(check(good).isEmpty)
    assert(check(outcome("PimaIndian", "nfs", 167, score = good.ok.get.score)).exists(_.contains("tableIV")))
    assert(check(outcome("PimaIndian", "nfs", 168, score = 0.9)).exists(_.contains("tableIII")))
  }
}
