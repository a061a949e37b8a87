package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Pins the forest bit for bit: `CrossVal.score` with the engine's forest
  * settings (12 trees, depth 7, 3 folds, seed 1), a `RandomForest`'s and a
  * plain `DecisionTree`'s predictions and importances. Every value is compared
  * as `doubleToLongBits`, so a change to how CART sorts, counts, sums or
  * draws its random numbers fails here even when it moves a score by one ulp.
  * Training-row predictions are pinned through a checksum of their bits.
  *
  * The datasets cover binary and 4-class Gini CART, variance CART, heavy ties
  * (0/1 and few-valued columns and a constant column), and columns holding
  * −0.0, 0.0, NaN and ±Inf.
  */
class ForestGoldenSpec extends AnyFunSuite {
  import ForestGoldenSpec._

  private def assertBits(what: String, actual: Array[Double], expected: Array[Double]): Unit = {
    assert(actual.length === expected.length, what)
    actual.indices.foreach { i =>
      assert(
        java.lang.Double.doubleToLongBits(actual(i)) === java.lang.Double.doubleToLongBits(expected(i)),
        s"$what($i): got ${actual(i)}, expected ${expected(i)}",
      )
    }
  }

  cases.foreach { c =>
    val e = golden(c.name)
    test(s"${c.name}: CrossVal.score is pinned bit for bit") {
      assertBits("cv seed 1", Array(cv(c, 1L)), Array(e.cv1))
      assertBits("cv seed 2", Array(cv(c, 2L)), Array(e.cv2))
    }
    test(s"${c.name}: RandomForest predictions and importances are pinned bit for bit") {
      val m = forest(c).fit(c.x, c.y)
      assertBits("probe", m.predictAll(c.probe), e.forestProbe)
      assert(checksum(m.predictAll(c.x)) === e.forestTrain)
      assertBits("importances", m.importances, e.forestImp)
    }
    test(s"${c.name}: DecisionTree predictions and importances are pinned bit for bit") {
      val m = tree(c).fit(c.x, c.y)
      assertBits("probe", m.predictAll(c.probe), e.treeProbe)
      assert(checksum(m.predictAll(c.x)) === e.treeTrain)
      assertBits("importances", m.importances, e.treeImp)
    }
  }
}

object ForestGoldenSpec {

  final case class Case(
      name: String,
      classification: Boolean,
      x: Array[Array[Double]],
      y: Array[Double],
      probe: Array[Array[Double]],
  )

  final case class Expected(
      cv1: Double,
      cv2: Double,
      forestProbe: Array[Double],
      forestTrain: Long,
      forestImp: Array[Double],
      treeProbe: Array[Double],
      treeTrain: Long,
      treeImp: Array[Double],
  )

  def forest(c: Case): RandomForest = new RandomForest(c.classification, nTrees = 12, maxDepth = 7, seed = 1L)
  def tree(c: Case): DecisionTree   = new DecisionTree(c.classification, maxDepth = 7, seed = 1L)
  def cv(c: Case, seed: Long): Double = CrossVal.score(c.x, c.y, forest(c), 3, seed)

  def checksum(v: Array[Double]): Long =
    v.foldLeft(17L)((h, d) => h * 31L + java.lang.Double.doubleToLongBits(d))

  private def gaussian(n: Int, p: Int, seed: Long): Array[Array[Double]] = {
    val rng = new Random(seed)
    Array.fill(n)(Array.fill(p)(rng.nextGaussian()))
  }

  private val binary = {
    val x = gaussian(96, 4, 1)
    val y = x.map(r => if (r(0) + 0.5 * r(1) + 0.3 * math.sin(5 * r(2)) > 0.1) 1.0 else 0.0)
    Case("binary Gini", classification = true, x, y, gaussian(6, 4, 11))
  }

  private val multiclass = {
    val x = gaussian(120, 5, 2)
    val y = x.map { r =>
      val s = r(0) + r(1) * r(2) + 0.2 * r(4)
      if (s < -0.6) 0.0 else if (s < 0.0) 1.0 else if (s < 0.7) 2.0 else 3.0
    }
    Case("4-class Gini", classification = true, x, y, gaussian(6, 5, 12))
  }

  private val regression = {
    val x = gaussian(100, 4, 3)
    val y = x.map(r => 2 * r(0) - r(1) * r(2) + math.sin(3 * r(3)))
    Case("variance regression", classification = false, x, y, gaussian(6, 4, 13))
  }

  private def tieRows(n: Int, seed: Long): Array[Array[Double]] = {
    val rng = new Random(seed)
    Array.fill(n)(Array(
      rng.nextInt(2).toDouble,
      rng.nextInt(4).toDouble,
      rng.nextInt(3) * 0.5,
      2.0,
      math.rint(rng.nextGaussian() * 2),
    ))
  }

  private val ties = {
    val x   = tieRows(108, 4)
    val rng = new Random(40)
    val y   = x.map(r => ((r(0) + r(1) + (if (rng.nextDouble() < 0.15) 1 else 0)) % 3).toDouble)
    Case("tie-heavy Gini", classification = true, x, y, tieRows(6, 14))
  }

  private val tiesRegression = {
    val x = tieRows(90, 5)
    val y = x.map(r => r(0) * 3 + r(1) - r(2) * r(4))
    Case("tie-heavy regression", classification = false, x, y, tieRows(6, 15))
  }

  private val specials = Array(-0.0, 0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  private def specialRows(n: Int, seed: Long): Array[Array[Double]] = {
    val rng = new Random(seed)
    def pick(share: Double, v: => Double): Double =
      if (rng.nextDouble() < share) specials(rng.nextInt(specials.length)) else v
    Array.fill(n)(Array(
      pick(0.4, rng.nextGaussian()),
      pick(0.8, 1.0),
      pick(0.25, rng.nextInt(3).toDouble),
      rng.nextGaussian(),
    ))
  }

  private def finiteOr(v: Double, alt: Double): Double = if (v.isNaN || v.isInfinite) alt else v

  private val special = {
    val x = specialRows(96, 6)
    val y = x.map(r => if (finiteOr(r(0), 0.5) + 0.4 * r(3) > 0.2 || r(1).isNaN) 1.0 else 0.0)
    Case("zeros, NaN and infinities Gini", classification = true, x, y, specialRows(8, 16))
  }

  private val specialRegression = {
    val x = specialRows(96, 7)
    val y = x.map(r => finiteOr(r(0), -1.0) * 2 + r(3) + (if (r(1).isInfinite) 1.5 else 0.0))
    Case("zeros, NaN and infinities regression", classification = false, x, y, specialRows(8, 17))
  }

  val cases: Seq[Case] =
    Seq(binary, multiclass, regression, ties, tiesRegression, special, specialRegression)

  val golden: Map[String, Expected] = Map(
    "binary Gini" -> Expected(
      cv1 = 0.7879888490641179,
      cv2 = 0.8779751538372228,
      forestProbe = Array(
        1.0, 0.0, 0.0,
        1.0, 1.0, 0.0,
      ),
      forestTrain = 3108680068095439889L,
      forestImp = Array(
        0.6192477442787223, 0.2665039847704779, 0.0551631060751415,
        0.0590851648756585,
      ),
      treeProbe = Array(
        1.0, 0.0, 0.0,
        1.0, 1.0, 0.0,
      ),
      treeTrain = -8132304601821318127L,
      treeImp = Array(
        29.070862369337977, 11.24957413859853, 1.8253968253968267,
        1.3333333333333333,
      ),
    ),
    "4-class Gini" -> Expected(
      cv1 = 0.6142225247820062,
      cv2 = 0.6371352780056588,
      forestProbe = Array(
        2.0, 3.0, 3.0,
        0.0, 0.0, 0.0,
      ),
      forestTrain = 7320361150569484561L,
      forestImp = Array(
        0.49151469819653215, 0.15596876691407885, 0.15523846273675782,
        0.09291958489105182, 0.10435848726157923,
      ),
      treeProbe = Array(
        3.0, 1.0, 3.0,
        0.0, 0.0, 0.0,
      ),
      treeTrain = 7883311103990796561L,
      treeImp = Array(
        43.411257309941504, 13.98388648388649, 14.542951444267231,
        5.333333333333333, 2.0119047619047614,
      ),
    ),
    "variance regression" -> Expected(
      cv1 = 0.3152359659244098,
      cv2 = 0.3487180687440798,
      forestProbe = Array(
        1.754705567126244, 0.36233312981988214, 0.055822666185338286,
        -0.3568748578592024, 1.428914542254212, -0.16184496132817713,
      ),
      forestTrain = -3837452758576804894L,
      forestImp = Array(
        0.5161473230026412, 0.13268890316833348, 0.21359558276557133,
        0.13756819106345394,
      ),
      treeProbe = Array(
        4.495710953298211, 0.1307046166392321, 1.4085974604754175,
        -0.8055473589984196, 1.4085974604754175, 1.4085974604754175,
      ),
      treeTrain = -8581163079536102486L,
      treeImp = Array(
        412.38835875149084, 19.593281796575166, 50.61129538290753,
        28.859377508186565,
      ),
    ),
    "tie-heavy Gini" -> Expected(
      cv1 = 0.7109277419260943,
      cv2 = 0.639246190302662,
      forestProbe = Array(
        0.0, 2.0, 1.0,
        1.0, 1.0, 1.0,
      ),
      forestTrain = -9065344286009073007L,
      forestImp = Array(
        0.31847979201720733, 0.41527728814945436, 0.10857715114800544,
        0.0, 0.15766576868533277,
      ),
      treeProbe = Array(
        0.0, 2.0, 1.0,
        1.0, 1.0, 1.0,
      ),
      treeTrain = 2324259171610911377L,
      treeImp = Array(
        32.97226307099472, 16.870626386755415, 2.8021986785144724,
        0.0, 4.51417112299465,
      ),
    ),
    "tie-heavy regression" -> Expected(
      cv1 = 0.3652258197016232,
      cv2 = 0.3216176095500477,
      forestProbe = Array(
        4.207158200980133, 3.520936021891105, 2.4035518204789037,
        4.207158200980133, 4.129033200980133, 2.3785874330145163,
      ),
      forestTrain = 3607558158405349683L,
      forestImp = Array(
        0.4396821925022337, 0.40073599747779376, 0.02326721197049695,
        0.0, 0.13631459804947552,
      ),
      treeProbe = Array(
        6.25, 3.8333333333333335, 1.6666666666666667,
        7.0, 6.25, 1.6666666666666667,
      ),
      treeTrain = -8725071670843124785L,
      treeImp = Array(
        239.26773874319656, 164.16162858709964, 23.791423160173206,
        0.0, 89.12920950953048,
      ),
    ),
    "zeros, NaN and infinities Gini" -> Expected(
      cv1 = 0.870923520923521,
      cv2 = 0.8594048594048594,
      forestProbe = Array(
        1.0, 0.0, 1.0,
        0.0, 0.0, 0.0,
        0.0, 0.0,
      ),
      forestTrain = -2962172229599988719L,
      forestImp = Array(
        0.4527461706360654, 0.08368171779122133, 0.08646603995042369,
        0.3771060716222896,
      ),
      treeProbe = Array(
        1.0, 0.0, 1.0,
        0.0, 0.0, 0.0,
        0.0, 1.0,
      ),
      treeTrain = -5839972391489735663L,
      treeImp = Array(
        23.243754979469273, 3.4679144385026754, 0.0,
        12.680754824452292,
      ),
    ),
    "zeros, NaN and infinities regression" -> Expected(
      cv1 = 0.23772281567980805,
      cv2 = 0.20249353723271932,
      forestProbe = Array(
        0.1183720096403554, -1.3785080181430398, -0.101818406466519,
        -0.06856733778761497, -0.48335368554794683, -0.4688942466748898,
        0.9760612108429635, -0.4582532804707715,
      ),
      forestTrain = 8157251990510649010L,
      forestImp = Array(
        0.4548791552656258, 0.16087714218568563, 0.060308478440438414,
        0.3239352241082502,
      ),
      treeProbe = Array(
        -0.32162527431922705, -4.671595481710043, -0.32162527431922705,
        -0.32162527431922705, -0.35719719414330414, -0.7258008643046624,
        1.7213002352811766, -0.35719719414330414,
      ),
      treeTrain = -1880991996347515819L,
      treeImp = Array(
        235.5163895045755, 0.607450417049475, 4.327707850187561,
        105.54552694506266,
      ),
    ),
  )
}
