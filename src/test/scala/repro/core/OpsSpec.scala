package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import scala.util.Random

/** Each operator: local implementation == DuckDB SQL (oracle). */
class OpsSpec extends SparkSpec {

  private val rng = new Random(7)

  private def mkDf(a: Array[Double], b: Array[Double], out: Array[Double]) = {
    val schema = StructType(Seq(
      StructField("id", LongType, nullable = false),
      StructField("a", DoubleType, nullable = false),
      StructField("b", DoubleType, nullable = false),
      StructField("out", DoubleType, nullable = false),
    ))
    val rows = a.indices.map(i => Row(i.toLong, a(i), b(i), out(i)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), schema)
  }

  // Includes awkward values: zeros, negatives, near-zero divisors.
  private def sample(n: Int): Array[Double] =
    Array.tabulate(n)(i => i match {
      case 0 => 0.0
      case 1 => -1.5
      case 2 => 1e-12
      case _ => rng.nextGaussian() * 5
    })

  private def oracleCheck(op: Op): Unit = {
    val a  = sample(40)
    val b  = sample(40)
    val df = mkDf(a, b, op.applyLocal(a, b))
    val sql =
      s"SELECT CAST(id AS BIGINT) AS id, ${op.duckSql("CAST(a AS DOUBLE)", "CAST(b AS DOUBLE)")} AS out FROM t"
    Oracle.assertEquivalent(df.select("id", "out"), sql, "t" -> df.drop("out"))
  }

  for (op <- Ops.all) {
    test(s"${op.name}: local implementation matches DuckDB oracle") {
      oracleCheck(op)
    }
  }

  test("log is total on negatives and zero") {
    val out = Ops.Log.applyLocal(Array(-10.0, 0.0, 10.0), Array.empty)
    assert(out(1) === 0.0)
    assert(out(0) === out(2)) // |x| symmetry
  }

  test("sqrt is total on negatives") {
    val out = Ops.Sqrt.applyLocal(Array(-4.0), Array.empty)
    assert(out(0) === 2.0)
  }

  test("minmax maps to [0,1] with min→0 and max→1") {
    val out = Ops.MinMax.applyLocal(Array(2.0, 4.0, 6.0), Array.empty)
    assert(out.toSeq === Seq(0.0, 0.5, 1.0))
  }

  test("minmax of a constant column is all-zero (guard)") {
    val out = Ops.MinMax.applyLocal(Array(3.0, 3.0, 3.0), Array.empty)
    assert(out.forall(_ === 0.0))
  }

  test("reciprocal guards zero") {
    val out = Ops.Recip.applyLocal(Array(0.0, 2.0, -0.5), Array.empty)
    assert(out.toSeq === Seq(0.0, 0.5, -2.0))
  }

  test("div and mod guard zero divisors") {
    val a = Array(10.0, 10.0)
    val b = Array(0.0, 4.0)
    assert(Ops.Div.applyLocal(a, b).toSeq === Seq(0.0, 2.5))
    assert(Ops.Mod.applyLocal(a, b).toSeq === Seq(0.0, 2.0))
  }

  test("mod is floored modulo (result has the divisor's sign)") {
    assert(Ops.Mod.applyLocal(Array(-7.0), Array(3.0))(0) === 2.0)
    assert(Ops.Mod.applyLocal(Array(7.0), Array(-3.0))(0) === -2.0)
  }

  /** 300 scalacheck-generated (a, b) column pairs of equal length 1–40. */
  private def columnPairs(value: Gen[Double]): Seq[(Array[Double], Array[Double])] = {
    val pair = for {
      n <- Gen.choose(1, 40)
      a <- Gen.listOfN(n, value)
      b <- Gen.listOfN(n, value)
    } yield (a.toArray, b.toArray)
    (0 until 300).map(i => pair.pureApply(Gen.Parameters.default, Seed(i.toLong)))
  }

  test("every op maps finite inputs with |x| <= 1e150 to finite outputs (scalacheck-generated)") {
    // Uniform over the range, log-uniform magnitudes down to subnormals, and
    // the guards' edges (zeros, the 1e-9 divisor threshold, the range ends).
    val logUniform = for {
      e   <- Gen.choose(-320.0, 150.0)
      neg <- Gen.oneOf(true, false)
    } yield { val x = math.min(math.pow(10, e), 1e150); if (neg) -x else x }
    val edges = Gen.oneOf(0.0, -0.0, 1e-9, -1e-9, 1.0000001e-9, Double.MinPositiveValue, 1e150, -1e150)
    val value = Gen.frequency(2 -> Gen.chooseNum(-1e150, 1e150), 2 -> logUniform, 1 -> edges)
    for ((a, b) <- columnPairs(value); op <- Ops.all) {
      val out = op.applyLocal(a, b)
      assert(out.forall(x => !x.isNaN && !x.isInfinite),
        s"${op.name} on a=${a.mkString(",")} b=${b.mkString(",")}: ${out.mkString(",")}")
    }
  }

  test("every op keeps the length and throws nothing on NaN, ±Inf and -0.0 (scalacheck-generated)") {
    val special = Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0)
    val value   = Gen.frequency(1 -> special, 1 -> Gen.chooseNum(-1e6, 1e6))
    for ((a, b) <- columnPairs(value); op <- Ops.all)
      assert(op.applyLocal(a, b).length === a.length, s"${op.name} on a=${a.mkString(",")} b=${b.mkString(",")}")
  }

  test("action space is the paper's 4 unary + 5 binary operators") {
    assert(Ops.unary.map(_.name) === IndexedSeq("log", "mmn", "sqrt", "recip"))
    assert(Ops.binary.map(_.name) === IndexedSeq("add", "sub", "mul", "div", "mod"))
    assert(Ops.all.size === 9)
    assert(Ops.unary.forall(_.isUnary) && Ops.binary.forall(!_.isUnary))
  }

  test("byName resolves every operator and rejects unknowns") {
    Ops.all.foreach(op => assert(Ops.byName(op.name) eq op))
    intercept[RuntimeException](Ops.byName("exp"))
  }
}
