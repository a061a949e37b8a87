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
    var lo  = values(0); var hi = values(0)
    values.foreach { v => if (v < lo) lo = v; if (v > hi) hi = v }
    if (hi - lo < 1e-12) Array.fill(values.length)(eps)
    else values.map(v => eps + (1.0 - eps) * (v - lo) / (hi - lo))
  }

  /** The random draws of one (seed, d) for rows [0, rows): entry `k * rows + i`
    * holds dimension k, row i. They depend on (seed, dimension, row) only,
    * never on the column, so each is computed once (Ioffe 2010 generates
    * them per element the same way); a signature then does only the
    * weight-dependent arithmetic. Immutable once built.
    *
    * Each `*Row` method returns dimension k's argmin row over the first m
    * rows: the first on ties, row 0 if no score is below `Double.MaxValue`.
    * Each score keeps the operations of the published formula in their
    * order, so the argmin is that formula's. One method per variant keeps
    * each hot loop's JIT profile to its own variant.
    */
  private final class Draws(seed: Long, d: Int, val rows: Int) {
    private def table(f: (Int, Int) => Double): Array[Double] = {
      val a = new Array[Double](d * rows)
      for (k <- 0 until d; i <- 0 until rows) a(k * rows + i) = f(k, i)
      a
    }
    private val plain   = table(uniform(seed, _, _, 1))
    private val r       = table(gamma2(seed, _, _, 11))
    private val expR    = r.map(math.exp)
    private val c       = table(gamma2(seed, _, _, 13))
    private val beta    = table(uniform(seed, _, _, 17))
    private val negLogX = table((k, i) => -math.log(uniform(seed, k, i, 19)))

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

    /** ICWS on log weights `lw`. */
    def icwsRow(k: Int, lw: Array[Double]): Int = {
      val o       = k * rows
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < lw.length) {
        val rk = r(o + i); val b = beta(o + i)
        val y  = math.exp(rk * (math.floor(lw(i) / rk + b) - b))
        val s  = c(o + i) / (y * expR(o + i))
        if (s < best) { best = s; bestRow = i }
        i += 1
      }
      bestRow
    }

    /** 0-bit CWS on log weights `lw`: ICWS with the c draw dropped. */
    def licwsRow(k: Int, lw: Array[Double]): Int = {
      val o       = k * rows
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < lw.length) {
        val rk = r(o + i); val b = beta(o + i)
        val y  = math.exp(rk * (math.floor(lw(i) / rk + b) - b))
        val s  = 1.0 / (y * expR(o + i))
        if (s < best) { best = s; bestRow = i }
        i += 1
      }
      bestRow
    }

    /** PCWS on log weights `lw`: one gamma replaced by a uniform draw. */
    def pcwsRow(k: Int, lw: Array[Double]): Int = {
      val o       = k * rows
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < lw.length) {
        val rk = r(o + i); val b = beta(o + i)
        val y  = math.exp(rk * (math.floor(lw(i) / rk + b) - b))
        val s  = negLogX(o + i) / (y * expR(o + i))
        if (s < best) { best = s; bestRow = i }
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
        val rk = r(o + i); val b = beta(o + i)
        val y  = math.abs(rk * (math.floor(w(i) / rk + b) - b)) + 1e-12
        val s  = c(o + i) / (y + rk)
        if (s < best) { best = s; bestRow = i }
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
  private def draws(seed: Long, d: Int, m: Int): Draws = {
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
    // The ICWS family takes log w once per row, not once per (dimension, row).
    variant match {
      case HashVariant.Plain => Array.tabulate(d)(t.plainRow(_, w.length))
      case HashVariant.CCWS  => Array.tabulate(d)(t.ccwsRow(_, w))
      case HashVariant.ICWS  => val lw = w.map(math.log); Array.tabulate(d)(t.icwsRow(_, lw))
      case HashVariant.LICWS => val lw = w.map(math.log); Array.tabulate(d)(t.licwsRow(_, lw))
      case HashVariant.PCWS  => val lw = w.map(math.log); Array.tabulate(d)(t.pcwsRow(_, lw))
    }
  }

  /** Selected row index for each of the d signature dimensions. */
  def selectedRows(
      values: Array[Double], d: Int, variant: HashVariant, seed: Long = 7L): Array[Int] =
    argminRows(normalize(values), d, variant, seed)

  /** d-dimensional signature: normalized values at the selected rows, sorted
    * ascending (permutation-invariant; see class doc).
    */
  def signature(
      values: Array[Double], d: Int, variant: HashVariant, seed: Long = 7L): Array[Double] = {
    val w = normalize(values)
    argminRows(w, d, variant, seed).map(w(_)).sorted
  }

  /** Jaccard-style similarity of two signatures (mean agreement within tol). */
  def signatureSimilarity(a: Array[Double], b: Array[Double], tol: Double = 0.05): Double = {
    require(a.length == b.length && a.nonEmpty, "signature length mismatch")
    a.zip(b).count { case (x, y) => math.abs(x - y) <= tol }.toDouble / a.length
  }
}
