package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.data.Datasets
import scala.util.Random

/** Q1 (§ 7.2, Fig. 5a): how often does a plain SQL group-by query lead to
  * a false discovery? We issue many random queries comparing the two
  * carriers over random WHERE conditions, rewrite each w.r.t. the
  * potential covariates {Airport, Month, DayOfWeek, Year}, and classify
  * the outcome.
  *
  * All queries share ONE materialized contingency table; each random
  * WHERE is a driver-side restriction, and the rewrite is evaluated with
  * [[Rewrite.totalOnTable]], the same Listing-2 kernel the DataFrame
  * rewrite runs.
  */
object FalseDiscovery {

  final case class Outcome(
      sqlDiff: Double, rwDiff: Double,
      sqlSignificant: Boolean, rwSignificant: Boolean) {
    def becameInsignificant: Boolean = sqlSignificant && !rwSignificant
    def reversed: Boolean = sqlSignificant && rwSignificant && sqlDiff * rwDiff < 0
  }

  final case class Result(outcomes: Seq[Outcome]) {
    private def overSig(f: Outcome => Boolean): Double = {
      val sig = outcomes.filter(_.sqlSignificant)
      if (sig.isEmpty) 0.0 else sig.count(f).toDouble / sig.size
    }
    /** Fraction of significant SQL queries whose difference became
      * insignificant after rewriting (paper: > 10%). */
    def fracInsignificant: Double = overSig(_.becameInsignificant)
    /** Fraction whose trend reversed (paper: 20%). */
    def fracReversed: Double = overSig(_.reversed)
    def nSignificant: Int = outcomes.count(_.sqlSignificant)
  }

  private val covs = Seq("Airport", "Month", "DayOfWeek", "Year")

  def run(spark: SparkSession, nQueries: Int = 1000, rows: Long = 200000,
          alpha: Double = 0.05, m: Int = 100, seed: Long = 101): Result = {
    val df = Datasets.flight(spark, rows, seed = 11)
    val ct = Contingency.fromDf(df, Seq("Carrier", "Delayed") ++ covs)
    val rng = new Random(seed)
    val airports = Datasets.flightAirports
    val months   = (1 to 12).map(_.toString)
    val years    = (2012 to 2015).map(_.toString)

    def randomSubset[A](xs: Seq[A], minSize: Int): Seq[A] = {
      val k = minSize + rng.nextInt(xs.size - minSize + 1)
      rng.shuffle(xs).take(k)
    }

    val outcomes = (1 to nQueries).flatMap { _ =>
      val selAirports = randomSubset(airports, 2).toSet
      val selMonths   = randomSubset(months, 3).toSet
      val selYears    = randomSubset(years, 2).toSet
      val iA = ct.attrs.indexOf("Airport")
      val iM = ct.attrs.indexOf("Month")
      val iY = ct.attrs.indexOf("Year")
      val sub = ContingencyTable(ct.attrs, ct.counts.filter { case (k, _) =>
        selAirports(k(iA)) && selMonths(k(iM)) && selYears(k(iY))
      })
      if (sub.n < 500) None
      else {
        val sql = Rewrite.originalOnTable(sub, "Carrier", "Delayed")
        val rw  = Rewrite.totalOnTable(sub, "Carrier", covs, "Delayed")
        if (!sql.contains("AA") || !sql.contains("UA") ||
            !rw.contains("AA") || !rw.contains("UA")) None
        else {
          val rngT = new Random(rng.nextLong())
          val sqlSig = IndepTest.mitOnTable(
            sub.marginal(Seq("Carrier", "Delayed")), "Carrier", "Delayed", Nil,
            m, rngT).pValue <= alpha
          // significance of the adjusted difference: I(Y; T | Z) via the
          // compound covariate — HyMIT rule: χ² when the sample is large
          // enough relative to df, MIT with group sampling otherwise
          val cmp = sub.compound(Seq("Carrier", "Delayed"), covs, "__Z")
          val dfree = cmp.marginal(Seq("__Z")).distinctCount.toLong
          val rwSig = (if (dfree <= cmp.n / 5)
              IndepTest.chi2OnTable(cmp, "Carrier", "Delayed", Seq("__Z"))
            else
              IndepTest.mitOnTable(cmp, "Carrier", "Delayed", Seq("__Z"),
                m, rngT, groupFraction = HypDB.groupFrac(cmp))).pValue <= alpha
          Some(Outcome(sql("AA") - sql("UA"), rw("AA") - rw("UA"), sqlSig, rwSig))
        }
      }
    }
    Result(outcomes)
  }

  def format(r: Result): String = {
    f"""random queries with a significant SQL difference: ${r.nSignificant}%d
       |became insignificant after rewriting: ${100 * r.fracInsignificant}%.1f%% (paper: >10%%)
       |trend reversed after rewriting:       ${100 * r.fracReversed}%.1f%% (paper: ~20%%)
       |""".stripMargin
  }
}
