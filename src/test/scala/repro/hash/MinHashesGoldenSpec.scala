package repro.hash

import java.nio.ByteBuffer
import java.security.MessageDigest
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Pins every variant's signature bit for bit (`doubleToRawLongBits`) at
  * d ∈ {16, 48} and seeds {7, 11} on five columns: Gaussian, heavy-tailed,
  * constant, one mixing 0.0 and -0.0 with a few other values, and one
  * shorter than d. Each case pins the SHA-256 prefix of its signature's raw
  * bits; a mismatch prints the case's new digest.
  */
class MinHashesGoldenSpec extends AnyFunSuite {
  import MinHashesGoldenSpec._

  test("every signature is pinned bit for bit") {
    val got = for {
      (col, values) <- columns
      v             <- HashVariant.all
      d             <- Seq(16, 48)
      seed          <- Seq(7L, 11L)
    } yield s"${v.name} d$d s$seed $col" -> digest(MinHashes.signature(values, d, v, seed))
    val wrong = got.filterNot { case (k, h) => golden.get(k).contains(h) }
    assert(wrong.isEmpty, wrong.map { case (k, h) => s""""$k" -> "$h",""" }.mkString("\n", "\n", ""))
    assert(got.map(_._1).toSet === golden.keySet)
  }
}

object MinHashesGoldenSpec {

  /** SHA-256 of the raw bits of `xs`, first 16 hex digits. */
  def digest(xs: Array[Double]): String = {
    val buf = ByteBuffer.allocate(8 * xs.length)
    xs.foreach(x => buf.putLong(java.lang.Double.doubleToRawLongBits(x)))
    MessageDigest.getInstance("SHA-256").digest(buf.array()).take(8).map(b => f"$b%02x").mkString
  }

  val columns: Seq[(String, Array[Double])] = {
    val rng = new Random(101)
    Seq(
      "gauss"    -> Array.fill(600)(rng.nextGaussian()),
      // Ratio of two Gaussians: Cauchy-like tails.
      "heavy"    -> Array.fill(400)(rng.nextGaussian() / (math.abs(rng.nextGaussian()) + 1e-3)),
      "constant" -> Array.fill(50)(4.2),
      "zeros"    -> Array.tabulate(64)(i => if (i % 9 == 4) 1.5 else if (i % 11 == 7) -2.0
                      else if (i % 2 == 0) 0.0 else -0.0),
      "short"    -> Array(0.3, -1.2, 2.5),
    )
  }

  val golden: Map[String, String] = Map(
    "minhash d16 s7 gauss" -> "b55bec9d66772f4b",
    "minhash d16 s11 gauss" -> "a16e2e4dab66f27e",
    "minhash d48 s7 gauss" -> "e7e9ab94ddd08baa",
    "minhash d48 s11 gauss" -> "f62fcdf458fa135f",
    "icws d16 s7 gauss" -> "0913d9c5633d1d4b",
    "icws d16 s11 gauss" -> "aab6a7f273748714",
    "icws d48 s7 gauss" -> "41f37cb602e7ba73",
    "icws d48 s11 gauss" -> "4ac07d216a5d3f0c",
    "licws d16 s7 gauss" -> "73ac4a792618e776",
    "licws d16 s11 gauss" -> "ea059d729a080c58",
    "licws d48 s7 gauss" -> "9b9837f65ad5ae4f",
    "licws d48 s11 gauss" -> "755e56ffefb1d8e9",
    "pcws d16 s7 gauss" -> "afbad041a6925964",
    "pcws d16 s11 gauss" -> "c1f0fc43e7b2b563",
    "pcws d48 s7 gauss" -> "d95c7df1f2b2d8af",
    "pcws d48 s11 gauss" -> "b03a8672400a692f",
    "ccws d16 s7 gauss" -> "c8e637789014b27f",
    "ccws d16 s11 gauss" -> "b1a8d0d06ba8aa45",
    "ccws d48 s7 gauss" -> "00aa9075c4c543dc",
    "ccws d48 s11 gauss" -> "22acec989c4ff50e",
    "minhash d16 s7 heavy" -> "4e91668534b7c73d",
    "minhash d16 s11 heavy" -> "5cb2bebe6b98821e",
    "minhash d48 s7 heavy" -> "36fa14718b63ddc1",
    "minhash d48 s11 heavy" -> "e6b5654bde4fabb0",
    "icws d16 s7 heavy" -> "befa680f94312d0c",
    "icws d16 s11 heavy" -> "b000fcdfae5e3de1",
    "icws d48 s7 heavy" -> "14e52b5950300f4f",
    "icws d48 s11 heavy" -> "30aae259bc18465a",
    "licws d16 s7 heavy" -> "11c874975251ff21",
    "licws d16 s11 heavy" -> "af0ec4b1d8789f8c",
    "licws d48 s7 heavy" -> "5b4894abd762a90d",
    "licws d48 s11 heavy" -> "b0c237bc63ae3c49",
    "pcws d16 s7 heavy" -> "51977193d4f40809",
    "pcws d16 s11 heavy" -> "f2eed8664fa13391",
    "pcws d48 s7 heavy" -> "91e9754dcf7a67c6",
    "pcws d48 s11 heavy" -> "e342f6bc618b72f4",
    "ccws d16 s7 heavy" -> "6ab6cd97ae38a3a6",
    "ccws d16 s11 heavy" -> "70be80fb4f0850d8",
    "ccws d48 s7 heavy" -> "994bb614398167f5",
    "ccws d48 s11 heavy" -> "273e5263ed0d41b8",
    "minhash d16 s7 constant" -> "6c4a93ff8182b750",
    "minhash d16 s11 constant" -> "6c4a93ff8182b750",
    "minhash d48 s7 constant" -> "96e76c87f377dd2d",
    "minhash d48 s11 constant" -> "96e76c87f377dd2d",
    "icws d16 s7 constant" -> "6c4a93ff8182b750",
    "icws d16 s11 constant" -> "6c4a93ff8182b750",
    "icws d48 s7 constant" -> "96e76c87f377dd2d",
    "icws d48 s11 constant" -> "96e76c87f377dd2d",
    "licws d16 s7 constant" -> "6c4a93ff8182b750",
    "licws d16 s11 constant" -> "6c4a93ff8182b750",
    "licws d48 s7 constant" -> "96e76c87f377dd2d",
    "licws d48 s11 constant" -> "96e76c87f377dd2d",
    "pcws d16 s7 constant" -> "6c4a93ff8182b750",
    "pcws d16 s11 constant" -> "6c4a93ff8182b750",
    "pcws d48 s7 constant" -> "96e76c87f377dd2d",
    "pcws d48 s11 constant" -> "96e76c87f377dd2d",
    "ccws d16 s7 constant" -> "6c4a93ff8182b750",
    "ccws d16 s11 constant" -> "6c4a93ff8182b750",
    "ccws d48 s7 constant" -> "96e76c87f377dd2d",
    "ccws d48 s11 constant" -> "96e76c87f377dd2d",
    "minhash d16 s7 zeros" -> "c03077ae5192c280",
    "minhash d16 s11 zeros" -> "d395c0a2d1285a95",
    "minhash d48 s7 zeros" -> "b96fea6841de4a9f",
    "minhash d48 s11 zeros" -> "001f207b80107dbf",
    "icws d16 s7 zeros" -> "2da4914f8e71f308",
    "icws d16 s11 zeros" -> "2da4914f8e71f308",
    "icws d48 s7 zeros" -> "ac2fc76d998baa27",
    "icws d48 s11 zeros" -> "61efe9b0fdd3b180",
    "licws d16 s7 zeros" -> "c8657210589989c9",
    "licws d16 s11 zeros" -> "2da4914f8e71f308",
    "licws d48 s7 zeros" -> "17a8d90fc91e82d7",
    "licws d48 s11 zeros" -> "4c62c58edf1eada7",
    "pcws d16 s7 zeros" -> "5dca2a7f9a1537b1",
    "pcws d16 s11 zeros" -> "2da4914f8e71f308",
    "pcws d48 s7 zeros" -> "4c62c58edf1eada7",
    "pcws d48 s11 zeros" -> "8d59126a76c0400f",
    "ccws d16 s7 zeros" -> "4fc897a54495aaa0",
    "ccws d16 s11 zeros" -> "e7b44f814817b5b9",
    "ccws d48 s7 zeros" -> "759986e3adfb8fd9",
    "ccws d48 s11 zeros" -> "a3d59c228e23600a",
    "minhash d16 s7 short" -> "35514c5ede36a79b",
    "minhash d16 s11 short" -> "5c4a3abb001482b1",
    "minhash d48 s7 short" -> "c5b86614952127c4",
    "minhash d48 s11 short" -> "fee4b298786b0075",
    "icws d16 s7 short" -> "ac1c02307bb4a644",
    "icws d16 s11 short" -> "a2ed4cad706e9a87",
    "icws d48 s7 short" -> "370fdc6ba83cd98f",
    "icws d48 s11 short" -> "f8d2633a5a385d92",
    "licws d16 s7 short" -> "f6435b053cbd36aa",
    "licws d16 s11 short" -> "ac1c02307bb4a644",
    "licws d48 s7 short" -> "a35d1e323b0db612",
    "licws d48 s11 short" -> "a4859c4cd947dea6",
    "pcws d16 s7 short" -> "03c39f8bafb9eb94",
    "pcws d16 s11 short" -> "f6435b053cbd36aa",
    "pcws d48 s7 short" -> "737b7dbc52e2375b",
    "pcws d48 s11 short" -> "c16d650b0f00f8cf",
    "ccws d16 s7 short" -> "76cffddf7cb8fc7c",
    "ccws d16 s11 short" -> "abfdc524bd536641",
    "ccws d48 s7 short" -> "ca933aa411006de6",
    "ccws d48 s11 short" -> "abe876d0f1beaa23",
  )
}
