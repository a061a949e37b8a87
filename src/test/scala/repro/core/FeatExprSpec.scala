package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import scala.collection.mutable
import scala.util.Random

class FeatExprSpec extends SparkSpec {

  private val cols = Array(
    Array(1.0, 2.0, 3.0),
    Array(4.0, 5.0, 6.0),
  )

  test("Raw evaluates to the underlying column") {
    val memo = mutable.Map.empty[String, Array[Double]]
    assert(Raw(1).evalLocal(cols, memo).toSeq === Seq(4.0, 5.0, 6.0))
  }

  test("Derived applies the operator elementwise") {
    val memo = mutable.Map.empty[String, Array[Double]]
    val e    = FeatExpr.derive(Ops.Add, Raw(0), Raw(1))
    assert(e.evalLocal(cols, memo).toSeq === Seq(5.0, 7.0, 9.0))
  }

  test("order counts nested transformations, Raw is order 0") {
    val e1 = FeatExpr.derive(Ops.Log, Raw(0), Raw(0))
    val e2 = FeatExpr.derive(Ops.Mul, e1, Raw(1))
    val e3 = FeatExpr.derive(Ops.Sqrt, e2, e2)
    assert(Raw(0).order === 0)
    assert(e1.order === 1 && e2.order === 2 && e3.order === 3)
  }

  test("commutative ops canonicalize operand order for dedup") {
    val a = FeatExpr.derive(Ops.Add, Raw(0), Raw(1))
    val b = FeatExpr.derive(Ops.Add, Raw(1), Raw(0))
    assert(a.key === b.key)
    val m1 = FeatExpr.derive(Ops.Mul, Raw(1), Raw(0))
    val m2 = FeatExpr.derive(Ops.Mul, Raw(0), Raw(1))
    assert(m1.key === m2.key)
  }

  test("non-commutative ops keep operand order") {
    val a = FeatExpr.derive(Ops.Sub, Raw(0), Raw(1))
    val b = FeatExpr.derive(Ops.Sub, Raw(1), Raw(0))
    assert(a.key !== b.key)
  }

  test("unary derive ignores the second operand") {
    val e = FeatExpr.derive(Ops.Sqrt, Raw(0), Raw(1))
    assert(e.key === "sqrt(f0)")
  }

  test("memoization reuses computed sub-expressions") {
    val memo = mutable.Map.empty[String, Array[Double]]
    val sub  = FeatExpr.derive(Ops.Mul, Raw(0), Raw(1))
    val e    = FeatExpr.derive(Ops.Add, sub, sub)
    e.evalLocal(cols, memo)
    assert(memo.contains(sub.key) && memo.contains(e.key))
  }

  test("parse round-trips nested keys") {
    val exprs = Seq(
      Raw(3),
      FeatExpr.derive(Ops.Log, Raw(12), Raw(12)),
      FeatExpr.derive(Ops.Div, FeatExpr.derive(Ops.Add, Raw(0), Raw(1)),
        FeatExpr.derive(Ops.Sqrt, Raw(2), Raw(2))),
      FeatExpr.derive(Ops.Mod, Raw(5), FeatExpr.derive(Ops.Mul, Raw(1), Raw(4))),
    )
    exprs.foreach { e =>
      val parsed = FeatExpr.parse(e.key)
      assert(parsed.key === e.key)
      assert(parsed.order === e.order)
    }
  }

  test("parse rejects malformed keys") {
    intercept[Exception](FeatExpr.parse("add(f0,f1"))
    intercept[Exception](FeatExpr.parse("nosuch(f0)"))
    intercept[Exception](FeatExpr.parse("f0extra,"))
  }

  test("parse round-trips random programs up to order 5 (scalacheck-generated)") {
    def gen(maxOrder: Int): Gen[FeatExpr] = {
      val raw = Gen.choose(0, 7).map(Raw(_))
      if (maxOrder == 0) raw
      else Gen.frequency(1 -> raw, 3 -> (for {
        op <- Gen.oneOf(Ops.all)
        a  <- gen(maxOrder - 1)
        b  <- gen(maxOrder - 1)
      } yield FeatExpr.derive(op, a, b)))
    }
    val rng  = new Random(5)
    val data = Array.fill(8)(Array.fill(50)(rng.nextGaussian() * 5))
    (0 until 200).foreach { i =>
      val e      = gen(5).pureApply(Gen.Parameters.default, Seed(i.toLong))
      val parsed = FeatExpr.parse(e.key)
      assert(parsed.key === e.key)
      // Arrays.equals compares bit patterns, so NaN from overflowing chains matches too.
      val want = e.evalLocal(data, mutable.Map.empty)
      val got  = parsed.evalLocal(data, mutable.Map.empty)
      assert(java.util.Arrays.equals(want, got), e.key)
    }
  }
}
