package repro.data

import scala.util.Random

/** Synthetic tabular dataset generator — the offline substitute for the
  * paper's OpenML/UCI datasets (see DESIGN.md §2).
  *
  * Construction guarantees the two properties the evaluation relies on:
  *
  *  1. *Feature-engineering headroom*: the label depends on pairwise
  *     interactions (products / ratios / sums) of latent informative
  *     variables exposed as raw features. An axis-aligned Random Forest
  *     gains from binary transformation features (f1*f2, f1/f2, …), so AFE
  *     genuinely improves scores — the premise of Tables I, III, IV.
  *  2. *Distributional validness signal*: informative features are centered
  *     gaussian-like while nuisance features are uniform / shifted /
  *     heavy-tailed. The FPE classifier sees only (hashed, normalized)
  *     feature values, so effectiveness must be predictable from value
  *     distributions alone — the premise the paper inherits from LFE.
  */
object SyntheticTabular {

  final case class Spec(
      name: String,
      nSamples: Int,
      nFeatures: Int,
      classification: Boolean,
      seed: Long,
      noise: Double = 0.3,
  )

  def generate(spec: Spec): TabularData = {
    import spec._
    require(nSamples > 0 && nFeatures > 0, s"$name: bad sizes")
    val rng  = new Random(seed)
    val nInf = math.max(2, math.min(nFeatures, math.ceil(nFeatures * 0.4).toInt))
    val nRed = math.min(nFeatures - nInf, math.max(0, nFeatures / 5))
    val nNoise = nFeatures - nInf - nRed

    // Latent informative variables.
    val z = Array.fill(nSamples, nInf)(rng.nextGaussian())

    // Interaction-driven target signal.
    val nPairs = math.max(2, nInf)
    val pairs = Array.fill(nPairs) {
      val a = rng.nextInt(nInf); val b = rng.nextInt(nInf)
      val kind  = rng.nextInt(3) // 0: product, 1: ratio, 2: sum
      val coeff = rng.nextGaussian() * 1.5
      (a, b, kind, coeff)
    }
    val linW = Array.fill(nInf)(rng.nextGaussian() * 0.3)
    val g = Array.tabulate(nSamples) { i =>
      var s = 0.0
      pairs.foreach { case (a, b, kind, c) =>
        val v = kind match {
          case 0 => z(i)(a) * z(i)(b)
          case 1 => z(i)(a) / (math.abs(z(i)(b)) + 0.5)
          case _ => z(i)(a) + z(i)(b)
        }
        s += c * v
      }
      var k = 0
      while (k < nInf) { s += linW(k) * z(i)(k); k += 1 }
      s + rng.nextGaussian() * noise
    }

    // Real tabular benchmarks are noisy and often imbalanced — the properties
    // that make pre-split DNNs collapse in the paper's Table III. A quarter
    // of the classification datasets use a 75/25 cut instead of the median,
    // and a noise-proportional fraction of labels is flipped.
    val y =
      if (classification) {
        val sorted = g.sorted
        val q      = if (seed % 4 == 0) 0.75 else 0.5
        val cut    = sorted(math.min(nSamples - 1, (nSamples * q).toInt))
        val flipP  = math.min(0.15, noise * 0.35)
        g.map { v =>
          val lab = if (v > cut) 1.0 else 0.0
          if (rng.nextDouble() < flipP) 1.0 - lab else lab
        }
      } else g.clone()

    // Exposed features: informative (mild affine jitter), redundant
    // (linear combos of informative), nuisance (distinct distributions).
    val cols = Array.ofDim[Array[Double]](nFeatures)
    for (j <- 0 until nInf) {
      val scale = 0.7 + rng.nextDouble() * 0.6
      val shift = rng.nextGaussian() * 0.2
      cols(j) = Array.tabulate(nSamples)(i => z(i)(j) * scale + shift)
    }
    for (j <- 0 until nRed) {
      val a = rng.nextInt(nInf); val b = rng.nextInt(nInf)
      val wa = rng.nextGaussian(); val wb = rng.nextGaussian()
      cols(nInf + j) = Array.tabulate(nSamples)(i => wa * z(i)(a) + wb * z(i)(b))
    }
    for (j <- 0 until nNoise) {
      val kind = rng.nextInt(3)
      cols(nInf + nRed + j) = kind match {
        case 0 => // uniform with arbitrary offset/scale
          val lo = rng.nextGaussian() * 5; val w = 1 + rng.nextDouble() * 10
          Array.fill(nSamples)(lo + rng.nextDouble() * w)
        case 1 => // heavy-tailed
          Array.fill(nSamples)(math.pow(math.abs(rng.nextGaussian()), 3) *
            (if (rng.nextBoolean()) 1 else -1) + rng.nextGaussian() * 0.1)
        case _ => // near-constant with rare spikes
          val base = rng.nextGaussian() * 3
          Array.fill(nSamples)(if (rng.nextDouble() < 0.05) base + rng.nextGaussian() * 4 else base)
      }
    }

    // Shuffle column order deterministically so informativeness is not
    // positional; the permutation is part of the dataset identity.
    val perm = rng.shuffle((0 until nFeatures).toList).toArray
    TabularData(name, perm.map(cols), y, classification)
  }
}
