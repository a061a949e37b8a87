package repro.hash

import java.lang.Double.doubleToRawLongBits
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Checks `MinHashes.signature` and `selectedRows` bit for bit against the
  * straight per-variant argmin loops below: every row's exact score, no
  * pruning, the boxed normalize and sort. The columns are Gaussian,
  * heavy-tailed, binary, few-valued and constant, some holding NaN, ±Inf and
  * -0.0 (three fixed ones NaNs of different bits), of lengths 1 to 1500 in mixed order, so the draws tables of the
  * random seeds grow mid-run.
  */
class MinHashesReferenceSpec extends AnyFunSuite {
  import MinHashesReferenceSpec._

  test("signature and selectedRows equal the unpruned reference loops bit for bit") {
    val rng   = new Random(2027)
    val seeds = Seq(7L, 11L) ++ Seq.fill(3)(rng.nextLong())
    val refs  = (for (s <- seeds; d <- Dims) yield (s, d) -> new Reference(s, d, MaxRows)).toMap
    val wrong = Seq.newBuilder[String]
    var cases = 0
    for (c <- 0 until Columns) {
      val (kind, values) = if (c < fixed.length) fixed(c) else column(rng)
      val seed = seeds(c % seeds.length)
      val d    = Dims((c / seeds.length) % Dims.length)
      val ref  = refs((seed, d))
      for (v <- HashVariant.all) {
        val rows = MinHashes.selectedRows(values, d, v, seed)
        val sig  = MinHashes.signature(values, d, v, seed)
        val refRows = ref.selectedRows(values, v)
        val refSig  = ref.signature(values, v)
        if (!rows.sameElements(refRows) || !sig.map(doubleToRawLongBits).sameElements(refSig.map(doubleToRawLongBits)))
          wrong += s"column $c ($kind, ${values.length} rows) ${v.name} d$d seed $seed"
        cases += 1
      }
    }
    val w = wrong.result()
    assert(w.isEmpty, s"${w.size} of $cases cases differ:" + w.take(20).mkString("\n", "\n", ""))
    assert(cases === Columns * HashVariant.all.size)
  }

  test("each weighted variant's margin-shrunk bound is below its exact score") {
    // The loops skip a row when lo ≥ best·w (ICWS family) or lo ≥ best
    // (CCWS). lo strictly below s·w (or s) means a skipped row has s ≥ best.
    val rng = new Random(5)
    for (seed <- Seq(7L, 11L, rng.nextLong()); d <- Dims) {
      val t   = MinHashes.draws(seed, d, 200)
      val ref = new Reference(seed, d, 200)
      for (k <- 0 until d; i <- 0 until 200) {
        val j = k * t.rows + i
        for (w <- Seq(1e-6, 1.0, 1e-6 + rng.nextDouble() * (1 - 1e-6), math.exp(rng.nextDouble() * math.log(1e-6)))) {
          def s(v: HashVariant) = ref.score(v, k, i, w, math.log(w))
          val cases = Seq(
            HashVariant.ICWS  -> (t.icwsLo(j), s(HashVariant.ICWS) * w),
            HashVariant.LICWS -> (t.licwsLo(j), s(HashVariant.LICWS) * w),
            HashVariant.PCWS  -> (t.pcwsLo(j), s(HashVariant.PCWS) * w),
            HashVariant.CCWS  -> (t.ccwsLo(j), s(HashVariant.CCWS)))
          for ((v, (lo, exact)) <- cases)
            assert(lo < exact, s"${v.name} seed $seed d$d k$k i$i w=$w")
        }
      }
    }
  }
}

object MinHashesReferenceSpec {
  val Columns = 2000
  val MaxRows = 1500
  val Dims    = Seq(16, 48)

  /** NaNs with different bits, which normalize passes through, beside ±Inf
    * (whose row normalizes to the NaN that ∞/∞ gives): each signature holds
    * NaNs that compare equal but differ in their raw bits.
    */
  val fixed: Seq[(String, Array[Double])] = {
    val nan1 = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    val nan2 = java.lang.Double.longBitsToDouble(0xfff8000000000002L)
    Seq(
      "nan-bits" -> Array(0.5, nan1, 2.0, nan2, -1.0, nan1, 3.0, nan2),
      "nan-inf"  -> Array(1.0, nan2, Double.PositiveInfinity, 2.0, nan1, -0.0, Double.PositiveInfinity, nan2),
      "nan-long" -> Array.tabulate(300)(i => if (i % 7 == 3) nan1 else if (i % 11 == 5) nan2 else i * 0.1),
    )
  }

  /** A seeded column: one of five value distributions, a log-uniform length
    * in [1, 1500] (every 97th is 1500), and in a quarter of the columns a few
    * entries replaced by NaN, ±Inf or -0.0.
    */
  def column(rng: Random): (String, Array[Double]) = {
    val n    = if (rng.nextInt(97) == 0) MaxRows else math.exp(rng.nextDouble() * math.log(MaxRows)).toInt.max(1)
    val kind = Seq("gauss", "heavy", "binary", "few", "constant")(rng.nextInt(5))
    val levels = Array.fill(3)(rng.nextGaussian() * 10)
    val values = kind match {
      case "gauss"  => Array.fill(n)(rng.nextGaussian())
      case "heavy"  => Array.fill(n)(rng.nextGaussian() / (math.abs(rng.nextGaussian()) + 1e-3))
      case "binary" => Array.fill(n)(if (rng.nextBoolean()) 1.0 else 0.0)
      case "few"    => Array.fill(n)(levels(rng.nextInt(levels.length)))
      case _        => Array.fill(n)(4.2)
    }
    if (rng.nextInt(4) == 0) {
      val special = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0)
      for (_ <- 0 to rng.nextInt(3)) values(rng.nextInt(n)) = special(rng.nextInt(special.length))
      (kind + "+special", values)
    } else (kind, values)
  }

  /** The straight loops: one exact score per (dimension, row), the first row
    * winning a tie, each score's operations in the published formula's order.
    */
  final class Reference(seed: Long, d: Int, rows: Int) {
    private def gamma2(k: Int, i: Int, salt: Int): Double =
      -math.log(MinHashes.uniform(seed, k, i, salt)) - math.log(MinHashes.uniform(seed, k, i, salt + 7919))
    private def table(f: (Int, Int) => Double): Array[Double] = {
      val a = new Array[Double](d * rows)
      for (k <- 0 until d; i <- 0 until rows) a(k * rows + i) = f(k, i)
      a
    }
    private val plain   = table(MinHashes.uniform(seed, _, _, 1))
    private val r       = table(gamma2(_, _, 11))
    private val expR    = r.map(math.exp)
    private val c       = table(gamma2(_, _, 13))
    private val beta    = table(MinHashes.uniform(seed, _, _, 17))
    private val negLogX = table((k, i) => -math.log(MinHashes.uniform(seed, k, i, 19)))

    def normalize(values: Array[Double]): Array[Double] = {
      val eps = 1e-6
      var lo  = values(0); var hi = values(0)
      values.foreach { v => if (v < lo) lo = v; if (v > hi) hi = v }
      if (hi - lo < 1e-12) Array.fill(values.length)(eps)
      else values.map(v => eps + (1.0 - eps) * (v - lo) / (hi - lo))
    }

    /** The exact score of dimension k, row i for weight w (ln w = lw). */
    def score(v: HashVariant, k: Int, i: Int, w: Double, lw: Double): Double = {
      val j = k * rows + i
      def y = { val rk = r(j); val b = beta(j); math.exp(rk * (math.floor(lw / rk + b) - b)) }
      v match {
        case HashVariant.Plain => plain(j)
        case HashVariant.ICWS  => c(j) / (y * expR(j))
        case HashVariant.LICWS => 1.0 / (y * expR(j))
        case HashVariant.PCWS  => negLogX(j) / (y * expR(j))
        case HashVariant.CCWS  =>
          val rk = r(j); val b = beta(j)
          val yc = math.abs(rk * (math.floor(w / rk + b) - b)) + 1e-12
          c(j) / (yc + rk)
      }
    }

    def argminRows(w: Array[Double], v: HashVariant): Array[Int] = {
      require(w.length <= rows)
      val lw = w.map(math.log)
      Array.tabulate(d) { k =>
        var bestRow = 0
        var best    = Double.MaxValue
        for (i <- w.indices) {
          val s = score(v, k, i, w(i), lw(i))
          if (s < best) { best = s; bestRow = i }
        }
        bestRow
      }
    }

    def selectedRows(values: Array[Double], v: HashVariant): Array[Int] = argminRows(normalize(values), v)

    def signature(values: Array[Double], v: HashVariant): Array[Double] = {
      val w = normalize(values)
      argminRows(w, v).map(w(_)).sorted
    }
  }
}
