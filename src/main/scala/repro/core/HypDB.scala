package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.IndepTest.Tester
import scala.util.Random

/** End-to-end HypDB (paper §§ 3–6): detect, explain and resolve bias of a
  * group-by-average query over `df` (already filtered by the WHERE
  * clause, i.e. `df` IS the context Γ).
  */
object HypDB {

  final case class Config(
      tester: Tester = Tester(),
      cd: CD.Config = CD.Config(),
      permutations: Int = 100,
      fineGrainedK: Int = 3,
      dropHighEntropy: Boolean = true)

  /** One detected effect direction (total or direct). */
  final case class Effect(
      answers: Map[String, Double],   // treatment value -> adjusted avg(Y)
      significance: TestResult)       // MIT significance of the adjusted difference

  final case class Report(
      treatment: String,
      outcome: String,
      originalAnswers: Map[String, Double],
      originalSignificance: TestResult,
      covariates: Seq[String],
      mediators: Seq[String],
      dropped: Set[String],
      usedFallback: Boolean,
      biasTotal: TestResult,          // (T ⊥ Z | Γ)?
      biasDirect: TestResult,         // (T ⊥ Z ∪ M | Γ)?
      responsibilities: Seq[Explain.Responsibility],
      fineGrained: Map[String, Seq[Explain.Triple]],
      totalEffect: Option[Effect],
      directEffect: Option[Effect],
      timings: Map[String, Double] = Map.empty) { // phase -> seconds

    def biasedTotal(alpha: Double = 0.01): Boolean  = biasTotal.dependent(alpha)
    def biasedDirect(alpha: Double = 0.01): Boolean = biasDirect.dependent(alpha)
  }

  /** Significance of Î(T; V | Γ) via MIT/HyMIT on the compound table. */
  def balanceTest(stats: StatsProvider, t: String, v: Seq[String],
                  cfg: Config): TestResult = {
    if (v.isEmpty)
      return TestResult(0, 1, 1, 1, "trivial")
    val ct = stats.contingency((t +: v).distinct).compound(Seq(t), v, "__V")
    cfg.tester.counter.tests += 1
    cfg.tester.method match {
      case "chi2" => IndepTest.chi2OnTable(ct, t, "__V", Nil)
      case _      => IndepTest.mitOnTable(ct, t, "__V", Nil, cfg.permutations,
                                          new Random(cfg.tester.seed), 1.0)
    }
  }

  /** Significance of the difference between the answers of Q (zs = ∅) or
    * Q_rw (zs = Z): MIT for I(Y; T | Z) (§ 7.1 "Significance test").
    */
  def effectSignificance(stats: StatsProvider, t: String, y: String, zs: Seq[String],
                         cfg: Config): TestResult = {
    cfg.tester.counter.tests += 1
    if (zs.isEmpty)
      IndepTest.mitOnTable(stats.contingency(Seq(t, y)), t, y, Nil,
                           cfg.permutations, new Random(cfg.tester.seed), 1.0)
    else {
      // condition on the compound covariate so |Π_Z| groups are exact
      val cmp = stats.contingency((Seq(t, y) ++ zs).distinct).compound(Seq(t, y), zs, "__Z")
      IndepTest.mitOnTable(cmp, t, y, Seq("__Z"), cfg.permutations,
                           new Random(cfg.tester.seed), groupFraction = groupFrac(cmp))
    }
  }

  /** Share of the `__Z` groups of a compound table that MIT simulates when
    * testing an adjusted difference: all of them up to 32 groups, else
    * 8·ln g / g.
    */
  private[repro] def groupFrac(cmp: ContingencyTable): Double = {
    val g = cmp.marginal(Seq("__Z")).distinctCount
    if (g <= 32) 1.0 else math.min(1.0, 8.0 * math.log(g.toDouble) / g)
  }

  private def answersOf(result: DataFrame, t: String, y: String): Map[String, Double] =
    result.select(col(t).cast("string"), col(s"avg_$y")).collect()
      .map(r => r.getString(0) -> (if (r.isNullAt(1)) Double.NaN else r.getDouble(1)))
      .toMap

  /** Full pipeline for `SELECT T, avg(Y) FROM df GROUP BY T`.
    *
    * @param attrs    attributes eligible as covariates/mediators (defaults
    *                 to all columns of df except nothing — pass explicitly
    *                 to exclude measures)
    * @param baseline treatment value used as t0 for the direct effect
    */
  def analyze(df: DataFrame, t: String, y: String, attrs: Seq[String],
              baseline: String, cfg: Config = Config()): Report = {
    def timed[A](body: => A): (A, Double) = {
      val t0 = System.nanoTime(); val a = body; (a, (System.nanoTime() - t0) / 1e9)
    }

    // -- detection: key-like attributes, stats, covariate/mediator
    // discovery and the bias tests -------------------------------------
    val (det, tDet) = timed {
      val heDrops =
        if (cfg.dropHighEntropy)
          CD.highEntropyAttributes(df, attrs.filterNot(a => a == t || a == y))
        else Set.empty[String]
      val stats = MaterializedStats(df, attrs.distinct)
      val cdT = CD.covariates(stats, t, y, cfg.cd, heDrops)
      val zs  = cdT.covariates.toSeq.sorted
      val cdY = CD.covariates(stats, y, t, cfg.cd, heDrops)
      // M = PA_Y − {T}; when the CD fallback made Z = MB(T) − {Y}, Z may
      // already contain mediators — they stay mediators, and the NDE below
      // conditions on Z − M as covariates so the two sets stay disjoint
      val ms      = (cdY.covariates - t).toSeq.sorted
      val biasTot = balanceTest(stats, t, zs, cfg)
      val biasDir = balanceTest(stats, t, (zs ++ ms).distinct, cfg)
      (heDrops, stats, cdT, zs, ms, biasTot, biasDir)
    }
    val (heDrops, stats, cdT, zs, ms, biasTot, biasDir) = det

    // -- the original (biased?) query: timed as part of resolution -------
    val ((origAns, origSig), tOrig) = timed {
      (answersOf(Rewrite.original(df, t, Nil, Seq(y)), t, y),
       effectSignificance(stats, t, y, Nil, cfg))
    }

    // -- explanations ------------------------------------------------------
    val (exp, tExp) = timed {
      val v    = (zs ++ ms).distinct
      val resp = if (v.nonEmpty) Explain.responsibilities(stats, t, v) else Nil
      val fine = resp.take(2).map(r =>
        r.attribute -> Explain.fineGrained(stats, t, y, r.attribute, cfg.fineGrainedK)
      ).toMap
      (resp, fine)
    }
    val (resp, fine) = exp

    // -- resolution: rewritten queries ------------------------------------
    val (res, tRes) = timed {
      val totalEff =
        if (zs.isEmpty) None
        else {
          val rw = Rewrite.total(df, t, Nil, zs, Seq(y))
          Some(Effect(answersOf(rw, t, y), effectSignificance(stats, t, y, zs, cfg)))
        }
      val directEff =
        if (ms.isEmpty) None
        else {
          val zForNde = zs.filterNot(ms.contains)
          val rw = Rewrite.nde(df, t, baseline, zForNde, ms, Seq(y))
          Some(Effect(answersOf(rw, t, y),
                      effectSignificance(stats, t, y, (zs ++ ms).distinct, cfg)))
        }
      (totalEff, directEff)
    }
    val (totalEff, directEff) = res

    Report(t, y, origAns, origSig, zs, ms, cdT.dropped ++ heDrops, cdT.usedFallback,
           biasTot, biasDir, resp, fine, totalEff, directEff,
           timings = Map("detection" -> tDet, "explanation" -> tExp, "resolution" -> (tOrig + tRes)))
  }
}
