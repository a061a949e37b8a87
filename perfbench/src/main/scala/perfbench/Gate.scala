package perfbench

import java.io.File
import repro.core.{FeatExpr, RunResult}
import scala.io.Source
import scala.util.Try

/** The correctness gate. Every run must finish with a finite score no lower
  * than its raw-feature base score, and with selected keys that parse to
  * programs of order at most `maxOrder`. Stage-1-only runs must make exactly
  * one downstream evaluation. A run must repeat the first iteration's counts,
  * score and selection in every later iteration of the same process. E-AFE
  * must make fewer downstream evaluations than NFS: on each dataset at the
  * paper budget (full scale, where Table IV makes the claim), and summed
  * over the iteration at every scale. With one stage-2 epoch a dataset's
  * counts are a few dozen and E-AFE can draw level with NFS by chance, so
  * there the per-dataset comparison is reported as a note. With the paper
  * tables given, each run must reproduce its (dataset, method) row: the
  * score of `tableIII.tsv` to three decimals and the evaluation count of
  * `tableIV.tsv`. The tables are only read.
  */
object Gate {

  /** Table III scores (as printed) and Table IV counts by (dataset, column). */
  final case class Tables(scores: Map[(String, String), String], evaluated: Map[(String, String), Long])

  private def readTsv(f: File): Seq[Map[String, String]] = {
    val src = Source.fromFile(f, "UTF-8")
    try {
      val lines  = src.getLines().filter(_.nonEmpty).toVector
      val header = lines.head.split("\t").toVector
      lines.tail.map(l => header.zip(l.split("\t")).toMap)
    } finally src.close()
  }

  def loadTables(root: File): Tables = {
    def rows(name: String) = readTsv(new File(root, s"bench-results/$name"))
    def cells(name: String) = for {
      row <- rows(name)
      col <- Seq("NFS", "E-AFE")
    } yield (row("Dataset"), col) -> row(col)
    Tables(cells("tableIII.tsv").toMap, cells("tableIV.tsv").map { case (k, v) => k -> v.toLong }.toMap)
  }

  /** The table column a run is reported under, if the paper tables have one. */
  def column(spec: RunSpec): Option[String] = spec.method match {
    case "nfs"                                          => Some("NFS")
    case "eafe" if spec.cfg.hashVariant == "ccws" &&
                   spec.cfg.stage2Epochs > 0            => Some("E-AFE")
    case _                                              => None
  }

  private def runProblems(o: RunOutcome, tables: Option[Tables]): Seq[String] = o.result match {
    case Left(err) => Seq(s"threw $err")
    case Right(r) =>
      val keys = r.selectedKeys.map(k => k -> Try(FeatExpr.parse(k)))
      Seq(
        Option.when(r.score.isNaN || r.score.isInfinite)(s"score ${r.score} is not finite"),
        Option.when(r.score < r.baseScore)(s"score ${r.score} below base score ${r.baseScore}"),
        keys.collectFirst { case (k, f) if f.isFailure => s"selected key $k does not parse" },
        keys.collectFirst { case (k, f) if f.toOption.exists(_.order > o.spec.cfg.maxOrder) =>
          s"selected key $k has order above ${o.spec.cfg.maxOrder}" },
        Option.when(o.spec.cfg.stage2Epochs == 0 && r.evaluated != 1)(
          s"stage-1-only run made ${r.evaluated} downstream evaluations, not 1"),
      ).flatten ++ tableProblems(o.spec, r, tables)
  }

  private def tableProblems(spec: RunSpec, r: RunResult, tables: Option[Tables]): Seq[String] =
    (for {
      t   <- tables
      col <- column(spec)
    } yield {
      val key   = (spec.dataset, col)
      val score = f"${r.score}%.3f"
      Seq(
        t.scores.get(key) match {
          case None                      => Some(s"no tableIII row for $key")
          case Some(s) if s != score     => Some(s"score $score differs from tableIII $s")
          case _                         => None
        },
        t.evaluated.get(key) match {
          case None                        => Some(s"no tableIV row for $key")
          case Some(n) if n != r.evaluated => Some(s"evaluated ${r.evaluated} differs from tableIV $n")
          case _                           => None
        },
      ).flatten
    }).getOrElse(Nil)

  private def fingerprint(r: RunResult) = (r.evaluated, r.generated, r.score, r.selectedKeys)

  /** (dataset, NFS evaluations, E-AFE evaluations) for each dataset of one
    * iteration that ran both methods.
    */
  private def pairs(it: Iteration): Seq[(String, Long, Long)] = {
    val byDs = it.runs.flatMap(o => o.ok.map(r => (o.spec.dataset, o.spec.method, r.evaluated)))
    for {
      (ds, nfs) <- byDs.collect { case (ds, "nfs", n) => ds -> n }
      eafe      <- byDs.collectFirst { case (`ds`, "eafe", n) => n }
    } yield (ds, nfs, eafe)
  }

  /** Datasets of one iteration on which E-AFE evaluated at least as much as NFS. */
  def eafeNotCheaper(it: Iteration): Seq[(String, Long, Long)] =
    pairs(it).filter { case (_, nfs, eafe) => eafe >= nfs }

  /** Problems by run, in iteration order; an empty list means the run passed.
    * With `perDataset` the E-AFE cost check applies to each dataset that runs
    * both methods; without it, to their sum over the iteration.
    */
  def check(its: Seq[Iteration], tables: Option[Tables], perDataset: Boolean): Seq[(RunOutcome, Seq[String])] = {
    val first = its.headOption.map(_.runs.flatMap(o => o.ok.map(r => o.spec.id -> fingerprint(r))).toMap)
      .getOrElse(Map.empty)
    its.flatMap { it =>
      val cost: Map[String, String] =
        if (perDataset) eafeNotCheaper(it).map { case (ds, nfs, eafe) =>
          ds -> s"E-AFE made $eafe downstream evaluations, NFS $nfs: E-AFE is not cheaper" }.toMap
        else {
          val (nfs, eafe) = (pairs(it).map(_._2).sum, pairs(it).map(_._3).sum)
          if (nfs == 0 || eafe < nfs) Map.empty
          else it.runs.map(o => o.spec.dataset ->
            s"E-AFE made $eafe downstream evaluations over the iteration, NFS $nfs: E-AFE is not cheaper").toMap
        }
      it.runs.map { o =>
        val repeat = o.ok.flatMap { r =>
          first.get(o.spec.id).filter(_ != fingerprint(r)).map(f =>
            s"iteration differs from the first: (evaluated, generated, score) " +
              s"${(r.evaluated, r.generated, r.score)} vs ${(f._1, f._2, f._3)}")
        }
        val dear = if (o.spec.isEafe) cost.get(o.spec.dataset).toSeq else Nil
        o -> (runProblems(o, tables) ++ repeat ++ dear)
      }
    }
  }
}
