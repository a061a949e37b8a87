package repro.hash

import java.util.concurrent.ConcurrentHashMap

/** The paper's sample compressor (Section III-B): MinHash projects a feature
  * column of arbitrary length M into a fixed d-dimensional signature by, for
  * each signature dimension, hashing the rows and emitting the (normalized)
  * feature value at the minimum-hash row.
  *
  * Variants implement the published structure of the weighted
  * consistent-sampling family with numerical guards (see DESIGN.md §2):
  *
  *  - Plain  — unweighted MinHash: the argmin row is independent of the
  *    feature values, i.e. a consistent row subsample shared by every feature
  *    of the dataset (this is what preserves pairwise sample similarity,
  *    Equ. 2).
  *  - ICWS   — Ioffe 2010 consistent weighted sampling.
  *  - LICWS  — Li 2015 0-bit CWS (ICWS with the c-draw dropped).
  *  - PCWS   — Wu et al. 2017 practical CWS (one gamma draw replaced by a
  *    uniform).
  *  - CCWS   — Wu et al. 2016 canonical CWS (works on raw, not log, weights).
  *
  * Three argmin loops serve the five variants (see `Draws`): Plain, CCWS,
  * and one for ICWS, LICWS and PCWS, which score a row with the same formula
  * and differ only in its numerator. Each weighted loop skips the rows that
  * a lower bound on the score already rules out, so only a few rows per
  * dimension pay for the exact score; the selected rows are the unpruned
  * loop's.
  *
  * Signatures are returned **sorted ascending** so the FPE classifier input is
  * permutation-invariant — the signature then acts as a quantile-style sketch
  * of the feature's value distribution (the analogue of LFE's quantile data
  * sketch the paper cites).
  */
sealed abstract class HashVariant(val name: String) extends Serializable
object HashVariant {
  case object Plain extends HashVariant("minhash")
  case object ICWS  extends HashVariant("icws")
  case object LICWS extends HashVariant("licws")
  case object PCWS  extends HashVariant("pcws")
  case object CCWS  extends HashVariant("ccws")

  val all: Seq[HashVariant] = Seq(Plain, ICWS, LICWS, PCWS, CCWS)
  def byName(n: String): HashVariant =
    all.find(_.name == n.toLowerCase).getOrElse(sys.error(s"unknown hash variant: $n"))
}

object MinHashes {

  /** splitmix64 — deterministic 64-bit mix. */
  private def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Deterministic uniform in (0,1) keyed by (seed, dim, row, salt). */
  private[hash] def uniform(seed: Long, dim: Int, row: Int, salt: Int): Double = {
    val z = mix(seed ^ (dim.toLong * 0xc2b2ae3d27d4eb4fL) ^ (row.toLong * 0x165667b19e3779f9L)
      ^ (salt.toLong * 0x27d4eb2f165667c5L))
    ((z >>> 11).toDouble + 0.5) / (1L << 53).toDouble
  }

  /** Gamma(2,1) draw = sum of two unit exponentials. */
  private def gamma2(seed: Long, dim: Int, row: Int, salt: Int): Double =
    -math.log(uniform(seed, dim, row, salt)) - math.log(uniform(seed, dim, row, salt + 7919))

  /** Min-max normalize to [eps, 1] — weights for the CWS family. */
  def normalize(values: Array[Double]): Array[Double] = {
    require(values.nonEmpty, "empty feature column")
    val eps = 1e-6
    val n   = values.length
    var lo  = values(0); var hi = values(0)
    var i   = 1
    while (i < n) {
      val v = values(i)
      if (v < lo) lo = v
      if (v > hi) hi = v
      i += 1
    }
    val w = new Array[Double](n)
    if (hi - lo < 1e-12) java.util.Arrays.fill(w, eps)
    else {
      val range = hi - lo
      i = 0
      while (i < n) { w(i) = eps + (1.0 - eps) * (values(i) - lo) / range; i += 1 }
    }
    w
  }

  /** A row is skipped only when its lower bound, shrunk by this factor, is
    * at least the running best: about six orders of magnitude above the
    * rounding of a score or a bound.
    */
  private val Margin = 1.0 - 1e-9

  /** The random draws of one (seed, d) for rows [0, rows): entry `k * rows + i`
    * holds dimension k, row i. They depend on (seed, dimension, row) only,
    * never on the column, so each is computed once (Ioffe 2010 generates
    * them per element the same way); a signature then does only the
    * weight-dependent arithmetic. Immutable once built.
    *
    * Each `*Row` method returns dimension k's argmin row over the rows of
    * `w`: the first on ties, row 0 if no score is below `Double.MaxValue`.
    * Each score keeps the operations of the published formula in their
    * order, so the argmin is that formula's. There are three loops: Plain,
    * CCWS and the ICWS family. The family's loop takes the variant's
    * numerator and bound tables as arguments and has no branch on the
    * variant; LICWS's numerator is a table of ones, and 1.0 / x and
    * ones(j) / x are the same bits.
    *
    * Each weighted loop first tests a lower bound on the row's score and
    * computes the exact score only if the bound does not rule the row out:
    *
    *  - ICWS family, s = num / (y·e^r) with y = exp(r(⌊ln w / r + β⌋ − β)):
    *    ⌊x⌋ ≤ x gives y ≤ w, so s ≥ num / (w·e^r), where num is c (ICWS),
    *    1 (LICWS) or −ln x (PCWS). The table holds Margin·num / e^r and the
    *    loop skips when that is ≥ best·w.
    *  - CCWS, s = c / (|t| + 1e-12 + r) with t = r(⌊w / r + β⌋ − β) ∈
    *    (w − r, w] and w ≤ 1: |t| ≤ max(1, r), so s ≥ c / (max(1, r) + r +
    *    1e-12). The table holds Margin times that, and the loop skips when
    *    it is ≥ best.
    *
    * A skipped row has s ≥ best, so under the strict `<` it could not have
    * replaced the best and the argmin is the unpruned loop's. A NaN weight
    * makes the comparison false, so its row is never skipped. A (seed, d)
    * holds 11 tables of 8·d·rows bytes: the six draws, the ones and the four
    * bounds (1.4 MB at d = 16 and 1000 rows).
    */
  private[hash] final class Draws(seed: Long, d: Int, val rows: Int) {
    private def table(f: (Int, Int) => Double): Array[Double] = {
      val a = new Array[Double](d * rows)
      for (k <- 0 until d; i <- 0 until rows) a(k * rows + i) = f(k, i)
      a
    }
    private val plain         = table(uniform(seed, _, _, 1))
    private val r             = table(gamma2(seed, _, _, 11))
    private val expR          = r.map(math.exp)
    private[hash] val c       = table(gamma2(seed, _, _, 13))
    private val beta          = table(uniform(seed, _, _, 17))
    private[hash] val negLogX = table((k, i) => -math.log(uniform(seed, k, i, 19)))
    private[hash] val ones    = Array.fill(d * rows)(1.0)

    private def bound(f: Int => Double): Array[Double] = table((k, i) => Margin * f(k * rows + i))
    private def icwsBound(num: Array[Double]): Array[Double] = bound(j => num(j) / expR(j))
    private[hash] val icwsLo  = icwsBound(c)
    private[hash] val licwsLo = icwsBound(ones)
    private[hash] val pcwsLo  = icwsBound(negLogX)
    private[hash] val ccwsLo  = bound(j => c(j) / (math.max(1.0, r(j)) + r(j) + 1e-12))

    def plainRow(k: Int, m: Int): Int = {
      val o       = k * rows
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < m) {
        val s = plain(o + i)
        if (s < best) { best = s; bestRow = i }
        i += 1
      }
      bestRow
    }

    /** The ICWS family on weights `w` with logs `lw`: s = num / (y·e^r) with
      * y = exp(r(⌊lw / r + β⌋ − β)), numerator table `num` (`c`, `ones` or
      * `negLogX`) and its bound table `lo`.
      */
    def icwsRow(k: Int, num: Array[Double], lo: Array[Double], w: Array[Double], lw: Array[Double]): Int = {
      val o       = k * rows
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < w.length) {
        val j = o + i
        if (!(lo(j) >= best * w(i))) {
          val rk = r(j); val b = beta(j)
          val y  = math.exp(rk * (math.floor(lw(i) / rk + b) - b))
          val s  = num(j) / (y * expR(j))
          if (s < best) { best = s; bestRow = i }
        }
        i += 1
      }
      bestRow
    }

    /** CCWS on the raw weights `w`. */
    def ccwsRow(k: Int, w: Array[Double]): Int = {
      val o       = k * rows
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < w.length) {
        val j = o + i
        if (!(ccwsLo(j) >= best)) {
          val rk = r(j); val b = beta(j)
          val y  = math.abs(rk * (math.floor(w(i) / rk + b) - b)) + 1e-12
          val s  = c(j) / (y + rk)
          if (s < best) { best = s; bestRow = i }
        }
        i += 1
      }
      bestRow
    }
  }

  private val tables = new ConcurrentHashMap[(Long, Int), Draws]()

  /** The (seed, d) draws covering at least `m` rows. A longer column replaces
    * the table with one of at least twice its rows; readers keep whichever
    * table they got, so none needs a lock.
    */
  private[hash] def draws(seed: Long, d: Int, m: Int): Draws = {
    val t = tables.get((seed, d))
    if (t != null && t.rows >= m) t
    else tables.compute((seed, d), (_, old) =>
      if (old != null && old.rows >= m) old
      else new Draws(seed, d, if (old == null) m else math.max(m, 2 * old.rows)))
  }

  /** For each of the d signature dimensions, the row of `w` (normalized
    * weights) with the smallest hash score.
    */
  private def argminRows(w: Array[Double], d: Int, variant: HashVariant, seed: Long): Array[Int] = {
    require(d > 0, "signature dimension must be positive")
    val t = draws(seed, d, w.length)
    def icws(num: Array[Double], lo: Array[Double]) = {
      val lw = logs(w)
      perDimension(d)(t.icwsRow(_, num, lo, w, lw))
    }
    variant match {
      case HashVariant.Plain => perDimension(d)(t.plainRow(_, w.length))
      case HashVariant.CCWS  => perDimension(d)(t.ccwsRow(_, w))
      case HashVariant.ICWS  => icws(t.c, t.icwsLo)
      case HashVariant.LICWS => icws(t.ones, t.licwsLo)
      case HashVariant.PCWS  => icws(t.negLogX, t.pcwsLo)
    }
  }

  /** `row(k)` for each dimension k < d. */
  private def perDimension(d: Int)(row: Int => Int): Array[Int] = {
    val rows = new Array[Int](d)
    var k    = 0
    while (k < d) { rows(k) = row(k); k += 1 }
    rows
  }

  /** ln w per row: the ICWS family takes it once per row, not once per
    * (dimension, row).
    */
  private def logs(w: Array[Double]): Array[Double] = {
    val lw = new Array[Double](w.length)
    var i  = 0
    while (i < lw.length) { lw(i) = math.log(w(i)); i += 1 }
    lw
  }

  /** Selected row index for each of the d signature dimensions. */
  private[hash] def selectedRows(
      values: Array[Double], d: Int, variant: HashVariant, seed: Long = 7L): Array[Int] =
    argminRows(normalize(values), d, variant, seed)

  /** d-dimensional signature: normalized values at the selected rows, sorted
    * ascending (permutation-invariant; see class doc) in `Double`'s total
    * order: NaNs last, in their row order.
    */
  def signature(
      values: Array[Double], d: Int, variant: HashVariant, seed: Long = 7L): Array[Double] = {
    val w    = normalize(values)
    val rows = argminRows(w, d, variant, seed)
    val sig  = new Array[Double](d)
    var k    = 0
    while (k < d) { sig(k) = w(rows(k)); k += 1 }
    // The JDK's sort moves NaNs to the end in their row order before sorting
    // the rest, so NaNs with different bits keep the order `sorted` gave.
    java.util.Arrays.sort(sig)
    sig
  }
}
