package repro.hash

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import scala.util.Random

class MinHashesSpec extends SparkSpec {

  private val rng = new Random(1)

  test("normalize maps to [eps,1] and preserves order") {
    val v = Array(3.0, -1.0, 5.0, 0.0)
    val w = MinHashes.normalize(v)
    assert(w.forall(x => x >= 1e-6 - 1e-15 && x <= 1.0))
    assert(w(2) === 1.0) // max maps to 1
    assert(w(1) < w(3) && w(3) < w(0) && w(0) < w(2))
  }

  test("normalize of a constant column is all-eps, no NaN") {
    val w = MinHashes.normalize(Array(4.2, 4.2, 4.2))
    assert(w.forall(x => x === 1e-6))
  }

  test("signature has exactly d entries and is sorted") {
    for (variant <- HashVariant.all) {
      val v = Array.fill(100)(rng.nextGaussian())
      val s = MinHashes.signature(v, 16, variant)
      assert(s.length === 16, variant.name)
      assert(s.toSeq === s.sorted.toSeq, variant.name)
    }
  }

  test("signature is deterministic in the seed") {
    for (variant <- HashVariant.all) {
      val v = Array.fill(80)(rng.nextGaussian())
      val a = MinHashes.signature(v, 24, variant, seed = 5)
      val b = MinHashes.signature(v, 24, variant, seed = 5)
      assert(a.sameElements(b), variant.name)
    }
  }

  test("different seeds give different selections") {
    val v = Array.fill(200)(rng.nextGaussian())
    val a = MinHashes.selectedRows(v, 32, HashVariant.Plain, seed = 1)
    val b = MinHashes.selectedRows(v, 32, HashVariant.Plain, seed = 2)
    assert(!a.sameElements(b))
  }

  test("plain MinHash selects the same rows regardless of values (consistent subsample)") {
    val v1 = Array.fill(150)(rng.nextGaussian())
    val v2 = Array.fill(150)(rng.nextDouble() * 100)
    val r1 = MinHashes.selectedRows(v1, 20, HashVariant.Plain)
    val r2 = MinHashes.selectedRows(v2, 20, HashVariant.Plain)
    assert(r1.sameElements(r2))
  }

  test("plain MinHash preserves pairwise similarity (Equ. 2)") {
    // Two near-identical columns stay similar after compression; an unrelated
    // column does not.
    val base  = Array.fill(400)(rng.nextGaussian())
    val close = base.map(_ + rng.nextGaussian() * 0.01)
    val far   = Array.fill(400)(rng.nextGaussian())
    val d     = 48
    val sBase  = MinHashes.signature(base, d, HashVariant.Plain)
    val sClose = MinHashes.signature(close, d, HashVariant.Plain)
    val sFar   = MinHashes.signature(far, d, HashVariant.Plain)
    // Share of dimensions that agree within 0.05.
    def similarity(a: Array[Double], b: Array[Double]) =
      a.indices.count(k => math.abs(a(k) - b(k)) <= 0.05).toDouble / d
    val simClose = similarity(sBase, sClose)
    val simFar   = similarity(sBase, sFar)
    assert(simClose > simFar, s"close=$simClose far=$simFar")
    assert(simClose > 0.8)
  }

  test("weighted variants select value-dependent rows") {
    // Unlike plain MinHash, a CWS variant's selection must change when the
    // weight profile changes drastically.
    val flat   = Array.fill(300)(0.5 + rng.nextDouble() * 0.01)
    val spiked = flat.clone(); spiked(7) = 1e3
    for (variant <- Seq(HashVariant.ICWS, HashVariant.CCWS, HashVariant.PCWS, HashVariant.LICWS)) {
      val a = MinHashes.selectedRows(flat, 32, variant)
      val b = MinHashes.selectedRows(spiked, 32, variant)
      assert(!a.sameElements(b), variant.name)
    }
  }

  test("identical inputs collide under every variant (consistency)") {
    val v = Array.fill(120)(rng.nextGaussian())
    for (variant <- HashVariant.all) {
      val a = MinHashes.signature(v, 16, variant)
      val b = MinHashes.signature(v.clone(), 16, variant)
      assert(a.sameElements(b), variant.name)
    }
  }

  test("signatures never contain NaN or infinities (scalacheck-generated inputs)") {
    val value = Gen.chooseNum(-1e6, 1e6)
    for (d <- Seq(8, 16, 48)) {
      // Any length, and lengths around d and past a 600-row table.
      val gens = Gen.nonEmptyListOf(value) +: Seq(1, d - 1, d, 601).map(Gen.listOfN(_, value))
      for (gen <- gens; i <- 0 until 40) {
        val vs = gen.pureApply(Gen.Parameters.default, Seed(i.toLong))
        for (variant <- HashVariant.all) {
          val s = MinHashes.signature(vs.toArray, d, variant)
          assert(s.length === d)
          assert(s.forall(x => !x.isNaN && !x.isInfinite), s"${variant.name} d$d on $vs")
        }
      }
    }
  }

  test("signature works for columns shorter than d") {
    val v = Array(1.0, 2.0, 3.0)
    val s = MinHashes.signature(v, 16, HashVariant.CCWS)
    assert(s.length === 16)
  }

  test("byName round-trips every variant") {
    HashVariant.all.foreach(v => assert(HashVariant.byName(v.name) === v))
    intercept[RuntimeException](HashVariant.byName("nope"))
  }

  test("d must be positive") {
    intercept[IllegalArgumentException] {
      MinHashes.signature(Array(1.0), 0, HashVariant.Plain)
    }
  }
}
