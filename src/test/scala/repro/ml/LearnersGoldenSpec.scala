package repro.ml

import org.scalatest.funsuite.AnyFunSuite
import repro.dnn.{MLPLearner, ResNetTabular}
import scala.util.Random

/** Pins the outputs of every non-forest learner and the forest importances on
  * fixed seeded data, so refactors of the learners must keep each one's
  * arithmetic exactly. The fourth column is constant, which exercises the
  * standardizers' zero-variance guard.
  */
class LearnersGoldenSpec extends AnyFunSuite {

  private val rng   = new Random(41)
  private def row() = Array(rng.nextGaussian(), rng.nextGaussian(), rng.nextGaussian(), 1.5)
  private val x     = Array.fill(48)(row())
  private val probe = Array.fill(6)(row())
  private val yClass = x.map(r => if (r(0) + 0.5 * r(1) > 0.3) 2.0 else if (r(2) > 0) 1.0 else 0.0)
  private val yReg   = x.map(r => 2 * r(0) - r(1) * r(2) + 0.5)

  private def predictions(l: Learner, y: Array[Double]): Array[Double] =
    l.fit(x, y).predictAll(probe)

  private def resNet(classification: Boolean) =
    new ResNetTabular(classification, hidden = 8, epochs = 5, seed = 3)
      .train(x, if (classification) yClass else yReg)

  private def importances(classification: Boolean, y: Array[Double]): Array[Double] =
    new RandomForest(classification, seed = 7).fit(x, y).importances

  private val golden: Seq[(String, () => Array[Double], Array[Double])] = Seq(
    ("LinearSVM", () => predictions(new LinearSVM(seed = 7), yClass), Array(
      0.0, 2.0, 0.0,
      0.0, 2.0, 2.0,
    )),
    ("NaiveBayes", () => predictions(new NaiveBayes(), yClass), Array(
      0.0, 2.0, 0.0,
      2.0, 2.0, 2.0,
    )),
    ("MLPLearner classification", () => predictions(new MLPLearner(true, seed = 7), yClass), Array(
      0.0, 2.0, 0.0,
      1.0, 2.0, 1.0,
    )),
    ("RidgeRegression", () => predictions(new RidgeRegression(), yReg), Array(
      0.8013057236363399, 2.1648946023736553, 1.6739767819562672,
      2.0330206346871185, 3.2415798355952794, 1.6038477514922262,
    )),
    ("GaussianProcess", () => predictions(new GaussianProcess(seed = 7), yReg), Array(
      0.17502167732425222, 3.297503958051368, -0.006790926850799517,
      1.809337142262489, 3.1128119417615463, 1.8157717576737231,
    )),
    ("GaussianProcess subsampled", () => predictions(new GaussianProcess(maxTrain = 32, seed = 7), yReg), Array(
      0.16155581357768178, 3.425263324326433, -0.023307846893976247,
      1.869070921700733, 3.1112930930196074, 1.860266898631634,
    )),
    ("MLPLearner regression", () => predictions(new MLPLearner(false, seed = 7), yReg), Array(
      -0.26924568554221395, 3.4476581522092165, -0.9378363270173241,
      1.7451359342414356, 2.6681057712823297, 1.933535018039402,
    )),
    ("ResNetTabular classification predict", () => probe.map(resNet(true).predict), Array(
      0.0, 2.0, 0.0,
      0.0, 2.0, 1.0,
    )),
    ("ResNetTabular classification features", () => probe.flatMap(resNet(true).features), Array(
      5.824306197907039, -3.4392682787199167, 0.2886348469391915,
      -0.10071192041053822, -0.5637302102175799, -0.6727395462619902,
      5.778436869125581, 0.49354095150486366, -0.8865748320930783,
      1.8291622753404502, -3.9352496190605475, 2.0407260419633064,
      4.808612174026976, -4.973170967358819, 7.6185114623712735,
      -3.1544705906225508, 7.685499807970313, -4.128551826110909,
      0.6999130261144724, -1.10106839154457, 0.26759677790610326,
      -1.3900326846821298, 10.401883405280921, 2.0558545535882615,
      0.587519723665175, -0.6371088951395425, 0.17646298064714694,
      0.9816945684942031, -0.621362151272331, -0.6604538227893731,
      1.6395584492528625, 1.287869335961191, -1.8267189069554344,
      2.1161744967146348, -4.428945846994271, 2.267699510187177,
      4.9871525437955615, -4.305474542091007, 6.799856520683287,
      -5.4660716912216465, 0.1646278357022227, -0.0060671183425360375,
      -1.294796899348667, 0.6830472976510735, -0.22334208776177586,
      -0.3688966548601366, 0.329622380966492, -1.3514063247821402,
    )),
    ("ResNetTabular regression predict", () => probe.map(resNet(false).predict), Array(
      0.09750629648790754, 3.038692111044335, 0.34817503560556196,
      1.8219858427722095, 2.9673944596707393, 1.830521026152696,
    )),
    ("ResNetTabular regression features", () => probe.flatMap(resNet(false).features), Array(
      1.1937246448148282, 0.44107411199362473, -0.5443166382707771,
      1.7887469070670161, -1.198070189952713, 0.1648126795093927,
      2.397292233497446, 1.6647094592351608, 0.5123897119162144,
      -2.710718266209781, 0.5196488774349648, -0.23718187315202233,
      -1.4113062260023779, -0.10576858260260563, 2.6930819580893406,
      1.7014401888572601, 2.1722218741084673, 0.5050179969815818,
      -0.3620762402084089, 1.887557699998073, -1.6438102917361608,
      -0.05409618497665125, 4.329929627311699, 2.57672392050036,
      0.08614525550299201, -0.5564731309745095, 0.5731938746613077,
      2.497320149612412, -1.2265325075427902, -0.03231680274275617,
      1.8881814834721706, 2.5598961425455866, -0.37469781565822335,
      -2.719087504287219, 0.5025302534707631, 1.2002748683436821,
      -1.5921661724787015, 0.3659976814751999, 3.0974774182586646,
      2.8076245140905596, 0.10004145639858991, -0.3858496125501941,
      0.5152928029406159, 1.5501890259062991, -0.677457502371699,
      0.031206165816247078, 1.0303933363588234, 1.6332476793987005,
    )),
    ("RandomForest classification importances", () => importances(true, yClass),
      Array(0.4338846460662631, 0.19964554440210486, 0.366469809531632, 0.0)),
    ("RandomForest regression importances", () => importances(false, yReg),
      Array(0.6151667266511532, 0.194446448103098, 0.1903868252457488, 0.0)),
  )

  golden.foreach { case (name, actual, expected) =>
    test(s"golden: $name") {
      val got = actual()
      assert(got.length === expected.length, s"$name: ${got.mkString("Array(", ", ", ")")}")
      got.indices.foreach { i =>
        assert(math.abs(got(i) - expected(i)) <= 1e-12, s"$name($i): ${got(i)} vs ${expected(i)}")
      }
    }
  }
}
