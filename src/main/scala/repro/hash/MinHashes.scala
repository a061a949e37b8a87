package repro.hash

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

  /** The per-row hash score for one signature dimension; the selected row is
    * the argmin.
    */
  private def score(
      variant: HashVariant, w: Double, seed: Long, dim: Int, row: Int): Double =
    variant match {
      case HashVariant.Plain =>
        uniform(seed, dim, row, 1)
      case HashVariant.ICWS =>
        val r = gamma2(seed, dim, row, 11)
        val c = gamma2(seed, dim, row, 13)
        val b = uniform(seed, dim, row, 17)
        val t = math.floor(math.log(w) / r + b)
        val y = math.exp(r * (t - b))
        c / (y * math.exp(r))
      case HashVariant.LICWS => // 0-bit CWS: drop the c draw
        val r = gamma2(seed, dim, row, 11)
        val b = uniform(seed, dim, row, 17)
        val t = math.floor(math.log(w) / r + b)
        val y = math.exp(r * (t - b))
        1.0 / (y * math.exp(r))
      case HashVariant.PCWS => // one gamma replaced by a uniform draw
        val r = gamma2(seed, dim, row, 11)
        val x = uniform(seed, dim, row, 19)
        val b = uniform(seed, dim, row, 17)
        val t = math.floor(math.log(w) / r + b)
        val y = math.exp(r * (t - b))
        -math.log(x) / (y * math.exp(r))
      case HashVariant.CCWS => // canonical: operates on the raw weight
        val r = gamma2(seed, dim, row, 11)
        val c = gamma2(seed, dim, row, 13)
        val b = uniform(seed, dim, row, 17)
        val t = math.floor(w / r + b)
        val y = math.abs(r * (t - b)) + 1e-12
        c / (y + r)
    }

  /** Selected row index for each of the d signature dimensions. */
  def selectedRows(
      values: Array[Double], d: Int, variant: HashVariant, seed: Long = 7L): Array[Int] = {
    require(d > 0, "signature dimension must be positive")
    val w = normalize(values)
    Array.tabulate(d) { k =>
      var bestRow = 0
      var best    = Double.MaxValue
      var i       = 0
      while (i < w.length) {
        val s = score(variant, w(i), seed, k, i)
        if (s < best) { best = s; bestRow = i }
        i += 1
      }
      bestRow
    }
  }

  /** d-dimensional signature: normalized values at the selected rows, sorted
    * ascending (permutation-invariant; see class doc).
    */
  def signature(
      values: Array[Double], d: Int, variant: HashVariant, seed: Long = 7L): Array[Double] = {
    val w    = normalize(values)
    val rows = selectedRows(values, d, variant, seed)
    rows.map(w(_)).sorted
  }

  /** Jaccard-style similarity of two signatures (mean agreement within tol). */
  def signatureSimilarity(a: Array[Double], b: Array[Double], tol: Double = 0.05): Double = {
    require(a.length == b.length && a.nonEmpty, "signature length mismatch")
    a.zip(b).count { case (x, y) => math.abs(x - y) <= tol }.toDouble / a.length
  }
}
