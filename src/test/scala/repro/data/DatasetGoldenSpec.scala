package repro.data

import org.scalatest.funsuite.AnyFunSuite

/** Pins every `DatasetRegistry.load` target and every `publicPretrain()` set
  * bit for bit: the task type, the shape, a checksum of the
  * `doubleToLongBits` of each feature column in order, and one of `y`. A
  * change to how datasets are generated or stored fails here, even one that
  * moves a single value by one ulp.
  */
class DatasetGoldenSpec extends AnyFunSuite {
  import DatasetGoldenSpec._

  private lazy val pretrain = DatasetRegistry.publicPretrain()
  private val datasets: Seq[(String, () => TabularData)] =
    DatasetRegistry.targets.map(e => e.name -> (() => DatasetRegistry.load(e.name))) ++
      (0 until 24).map(i => s"public-$i" -> (() => pretrain(i)))

  test("the golden covers every registry target and public pre-training set") {
    assert(datasets.map(_._1).toSet === golden.keySet)
    assert(datasets.size === 36 + 24)
  }

  datasets.foreach { case (name, load) =>
    test(s"$name is pinned bit for bit") {
      assert(pin(load()) === golden(name))
    }
  }
}

object DatasetGoldenSpec {

  final case class Pin(classification: Boolean, nSamples: Int, nFeatures: Int, columns: Long, y: Long)

  def checksum(v: Array[Double]): Long =
    v.foldLeft(17L)((h, d) => h * 31L + java.lang.Double.doubleToLongBits(d))

  def pin(d: TabularData): Pin = Pin(
    d.classification, d.nSamples, d.nFeatures,
    (0 until d.nFeatures).foldLeft(19L)((h, j) => h * 1000003L + checksum(d.column(j))),
    checksum(d.y),
  )

  val golden: Map[String, Pin] = Map(
    "Higgs Boson" -> Pin(true, 1200, 28, 6935929403805561838L, -8516790304150345199L),
    "A. Employee" -> Pin(true, 1200, 9, 755798903047436140L, 6534239650521852433L),
    "PimaIndian" -> Pin(true, 768, 8, 5425027160202767725L, 7242340132514406417L),
    "SpectF" -> Pin(true, 267, 44, -599764521706587059L, 7513231415098743631L),
    "SVMGuide3" -> Pin(true, 1200, 21, 6999090423974216525L, 2440467589242071569L),
    "German Credit" -> Pin(true, 1001, 24, 1058387993391585086L, -7185669602444509425L),
    "Bikeshare DC" -> Pin(false, 1200, 11, 7715339747675614894L, 327905341724025929L),
    "Housing Boston" -> Pin(false, 506, 13, -2907739412924003665L, 7196916263352781726L),
    "Airfoil" -> Pin(false, 1200, 5, -7304975396280827426L, 4718078902756124073L),
    "AP. ovary" -> Pin(true, 275, 64, 7242174754773770899L, 6078579900583205967L),
    "Lymphography" -> Pin(true, 148, 18, -4153774142373005762L, -4885063342122713711L),
    "Ionosphere" -> Pin(true, 351, 34, 4744743516109765819L, -1400777246519171633L),
    "Openml 618" -> Pin(false, 1000, 50, 330077188246561033L, 476952119666938415L),
    "Openml 589" -> Pin(false, 1000, 25, 7035708847182937916L, -4685212244710712535L),
    "Openml 616" -> Pin(false, 500, 50, -1572541232550596623L, -8417852653118254772L),
    "Openml 607" -> Pin(false, 1000, 50, -4462047165018823912L, -7628632967699185283L),
    "Openml 620" -> Pin(false, 1000, 25, 6411477960753705295L, -7130417135959699032L),
    "Openml 637" -> Pin(false, 500, 50, 7232202728364070618L, -7605738902374096122L),
    "Openml 586" -> Pin(false, 1000, 25, -1033834287979304356L, -4065949680884080219L),
    "Credit Default" -> Pin(true, 1200, 25, -2237421988981887467L, 4124813849878637073L),
    "Messidor features" -> Pin(true, 1150, 19, 2443400267162174035L, -1907147306408591279L),
    "Wine Q. Red" -> Pin(true, 999, 12, 2331756134134626663L, -1132486780592097585L),
    "Wine Q. White" -> Pin(true, 1200, 12, 7972181299868185032L, -8282603123527079407L),
    "SpamBase" -> Pin(true, 1200, 57, 2893307428097916131L, -5783105330336454127L),
    "AP. lung" -> Pin(true, 203, 64, 1609614121813343758L, 3132951757702173519L),
    "credit-a" -> Pin(true, 690, 6, -3384404444143392427L, -2686057366795408943L),
    "diabetes" -> Pin(true, 768, 8, 247729128418515315L, -5462314416297762799L),
    "fertility" -> Pin(true, 100, 9, -3521854828098389989L, -6224588393276243055L),
    "gisette" -> Pin(true, 1200, 64, 4590003024349336276L, 7268326389783243281L),
    "hepatitis" -> Pin(true, 155, 6, 7751373586290093615L, 5780216183407873359L),
    "labor" -> Pin(true, 57, 8, 4671531815135055985L, 4087377925962107151L),
    "lymph" -> Pin(true, 138, 64, 8854141205041327234L, 2096006710298791633L),
    "madelon" -> Pin(true, 780, 64, 1822092447522578561L, 4809628839021317777L),
    "megawatt1" -> Pin(true, 253, 37, -8753530212810809743L, 8199029984315670927L),
    "secom" -> Pin(true, 470, 64, 195687708159586144L, -3950696890369706671L),
    "sonar" -> Pin(true, 208, 60, -1208016398879915649L, 3369481124083181073L),
    "public-0" -> Pin(true, 120, 6, -2186495883551957463L, -2423176643246583535L),
    "public-1" -> Pin(false, 157, 11, 5733840816444099382L, -5589492119174196515L),
    "public-2" -> Pin(true, 194, 16, 6213363129037469856L, -1310254939929630767L),
    "public-3" -> Pin(false, 231, 10, -8989748989691837758L, 4411891155950013850L),
    "public-4" -> Pin(true, 268, 15, 5424361412236952546L, -2119179885523022191L),
    "public-5" -> Pin(false, 305, 9, 2355229061799677417L, -7564801408297190055L),
    "public-6" -> Pin(true, 342, 14, 6327834933642313555L, 7396637663617090897L),
    "public-7" -> Pin(false, 379, 8, -8409617901670497590L, 8740144547960946508L),
    "public-8" -> Pin(true, 416, 13, 8985427241116056565L, 5938676359334022161L),
    "public-9" -> Pin(false, 453, 7, -4124307123318117837L, -9107812073292329569L),
    "public-10" -> Pin(true, 490, 12, 4826635651482263877L, 6454286661296530129L),
    "public-11" -> Pin(false, 527, 6, -1734896267698313203L, -8503168159115158707L),
    "public-12" -> Pin(true, 564, 11, 3566434416360637934L, 5468524086629861777L),
    "public-13" -> Pin(false, 121, 16, 8774314054456909756L, 3380724732858133869L),
    "public-14" -> Pin(true, 158, 10, -5244856584804997776L, -7384963723827397551L),
    "public-15" -> Pin(false, 195, 15, -7809540761853042755L, -1548500020328810435L),
    "public-16" -> Pin(true, 232, 9, -126440039047968071L, -6403681770285317359L),
    "public-17" -> Pin(false, 269, 14, -7118687666068150626L, -980724833221878254L),
    "public-18" -> Pin(true, 306, 8, 937536612084438967L, 211347133924694481L),
    "public-19" -> Pin(false, 343, 13, 1543362048183666944L, 2542328642075083316L),
    "public-20" -> Pin(true, 380, 7, -7069339134157463150L, -2755163782244302703L),
    "public-21" -> Pin(false, 417, 12, 2060111293539651944L, 4209355894906090970L),
    "public-22" -> Pin(true, 454, 6, -4757452098268073404L, 4997132916356331345L),
    "public-23" -> Pin(false, 491, 11, 133164415290638619L, -8510959134545686036L),
  )
}
