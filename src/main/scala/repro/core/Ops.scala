package repro.core

/** The paper's nine transformation operators (Section II, "Action"):
  * four unary — logarithm, min-max-normalization, square root, reciprocal —
  * and five binary — addition, subtraction, multiplication, division, modulo.
  *
  * Every operator has a local Array[Double] implementation, used by the RL
  * loop and every table, and an equivalent DuckDB SQL form that tests check
  * the local one against. The local forms are primitive loops, so no element
  * is boxed.
  * Guards (log of |x|+1, zero-divisor → 0, …) follow standard AFE practice —
  * transformations must be total on arbitrary real columns.
  */
sealed abstract class Op(val name: String, val isUnary: Boolean) extends Serializable {
  /** Local evaluation. For unary ops `b` is ignored. */
  def applyLocal(a: Array[Double], b: Array[Double]): Array[Double]
  /** The equivalent DuckDB SQL over scalar expressions ea, eb (for oracles). */
  def duckSql(ea: String, eb: String): String
}

object Ops {
  private val Eps = 1e-9

  case object Log extends Op("log", isUnary = true) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = math.log1p(math.abs(a(i))); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String = s"ln(1.0 + abs($ea))"
  }

  case object Sqrt extends Op("sqrt", isUnary = true) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = math.sqrt(math.abs(a(i))); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String = s"sqrt(abs($ea))"
  }

  case object MinMax extends Op("mmn", isUnary = true) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var lo  = a(0); var hi = a(0)
      var i   = 1
      while (i < a.length) {
        if (a(i) < lo) lo = a(i)
        if (a(i) > hi) hi = a(i)
        i += 1
      }
      if (!(hi - lo < Eps)) {
        i = 0
        while (i < a.length) { out(i) = (a(i) - lo) / (hi - lo); i += 1 }
      }
      out
    }
    override def duckSql(ea: String, eb: String): String =
      s"(CASE WHEN max($ea) OVER () - min($ea) OVER () < $Eps THEN 0.0 " +
        s"ELSE ($ea - min($ea) OVER ()) / (max($ea) OVER () - min($ea) OVER ()) END)"
  }

  case object Recip extends Op("recip", isUnary = true) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = if (math.abs(a(i)) < Eps) 0.0 else 1.0 / a(i); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String =
      s"(CASE WHEN abs($ea) < $Eps THEN 0.0 ELSE 1.0 / $ea END)"
  }

  case object Add extends Op("add", isUnary = false) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = a(i) + b(i); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String = s"($ea + $eb)"
  }

  case object Sub extends Op("sub", isUnary = false) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = a(i) - b(i); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String = s"($ea - $eb)"
  }

  case object Mul extends Op("mul", isUnary = false) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = a(i) * b(i); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String = s"($ea * $eb)"
  }

  case object Div extends Op("div", isUnary = false) {
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) { out(i) = if (math.abs(b(i)) < Eps) 0.0 else a(i) / b(i); i += 1 }
      out
    }
    override def duckSql(ea: String, eb: String): String =
      s"(CASE WHEN abs($eb) < $Eps THEN 0.0 ELSE $ea / $eb END)"
  }

  case object Mod extends Op("mod", isUnary = false) {
    // Floored modulo a − ⌊a/b⌋·b: expressible with identical IEEE primitives
    // in local math and DuckDB (Java %, C fmod and SQL engines disagree on
    // sign conventions; this form does not).
    override def applyLocal(a: Array[Double], b: Array[Double]): Array[Double] = {
      val out = new Array[Double](a.length)
      var i   = 0
      while (i < a.length) {
        out(i) = if (math.abs(b(i)) < Eps) 0.0 else a(i) - math.floor(a(i) / b(i)) * b(i)
        i += 1
      }
      out
    }
    override def duckSql(ea: String, eb: String): String =
      s"(CASE WHEN abs($eb) < $Eps THEN 0.0 ELSE $ea - floor($ea / $eb) * $eb END)"
  }

  val unary: IndexedSeq[Op]  = IndexedSeq(Log, MinMax, Sqrt, Recip)
  val binary: IndexedSeq[Op] = IndexedSeq(Add, Sub, Mul, Div, Mod)
  /** Action space, index-stable — agents emit indices into this. */
  val all: IndexedSeq[Op] = unary ++ binary

  def byName(n: String): Op = all.find(_.name == n).getOrElse(sys.error(s"unknown op: $n"))
}
