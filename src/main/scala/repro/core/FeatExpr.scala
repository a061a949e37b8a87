package repro.core

import scala.collection.mutable

/** A feature program — the state element of the RL formulation. `Raw(i)` is
  * an original feature; `Derived(op, a, b)` is `OPERATOR(feature1, feature2)`
  * (Section II). Programs are structurally deduplicated via `key` and carry a
  * transformation `order` capped at the paper's maximum order 5.
  */
sealed trait FeatExpr extends Serializable {
  def order: Int
  /** Canonical structural key (dedup + memoization). */
  def key: String
  /** Evaluate against column-major raw data, memoizing by key. */
  def evalLocal(cols: Array[Array[Double]],
                memo: mutable.Map[String, Array[Double]]): Array[Double]
}

final case class Raw(idx: Int) extends FeatExpr {
  override val order: Int  = 0
  override val key: String = s"f$idx"
  override def evalLocal(cols: Array[Array[Double]],
                         memo: mutable.Map[String, Array[Double]]): Array[Double] = cols(idx)
}

final case class Derived(op: Op, a: FeatExpr, b: FeatExpr) extends FeatExpr {
  override val order: Int = math.max(a.order, b.order) + 1
  override val key: String =
    if (op.isUnary) s"${op.name}(${a.key})" else s"${op.name}(${a.key},${b.key})"
  override def evalLocal(cols: Array[Array[Double]],
                         memo: mutable.Map[String, Array[Double]]): Array[Double] =
    memo.getOrElseUpdate(key, {
      val va = a.evalLocal(cols, memo)
      val vb = if (op.isUnary) va else b.evalLocal(cols, memo)
      op.applyLocal(va, vb)
    })
}

object FeatExpr {
  /** Build the transformation, canonicalizing commutative ops (add/mul) so
    * `add(f1,f2)` and `add(f2,f1)` dedup to one program.
    */
  def derive(op: Op, a: FeatExpr, b: FeatExpr): FeatExpr = {
    if (op.isUnary) Derived(op, a, a)
    else if ((op == Ops.Add || op == Ops.Mul) && b.key < a.key) Derived(op, b, a)
    else Derived(op, a, b)
  }

  /** Parse a key produced by [[FeatExpr.key]] back into a program. Used to
    * re-materialize cached selected features for the Table V swap study.
    */
  def parse(key: String): FeatExpr = {
    def inner(s: String): (FeatExpr, String) = {
      if (s.startsWith("f")) {
        val digits = s.drop(1).takeWhile(_.isDigit)
        (Raw(digits.toInt), s.drop(1 + digits.length))
      } else {
        val opName = s.takeWhile(_ != '(')
        val op     = Ops.byName(opName)
        val rest0  = s.drop(opName.length + 1) // past '('
        val (a, rest1) = inner(rest0)
        if (op.isUnary) {
          require(rest1.startsWith(")"), s"bad key: $key")
          (Derived(op, a, a), rest1.drop(1))
        } else {
          require(rest1.startsWith(","), s"bad key: $key")
          val (b, rest2) = inner(rest1.drop(1))
          require(rest2.startsWith(")"), s"bad key: $key")
          (Derived(op, a, b), rest2.drop(1))
        }
      }
    }
    val (e, rest) = inner(key)
    require(rest.isEmpty, s"trailing input in key: $key")
    e
  }
}
