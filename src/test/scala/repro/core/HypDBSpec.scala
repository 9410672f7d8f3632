package repro.core

import repro.SparkSpec
import repro.data.Datasets
import repro.core.IndepTest.Tester

class HypDBSpec extends SparkSpec {

  private def cfg = HypDB.Config(
    tester = Tester(method = "hymit", alpha = 0.01, m = 100, minEffect = 1e-3),
    cd = CD.Config(tester = Tester(method = "hymit", alpha = 0.01, m = 100,
                                   minEffect = 1e-3)),
    permutations = 100)

  // ------------------------------------------------------------ Cancer --

  private lazy val cancerReport: HypDB.Report = {
    val df = Datasets.cancer(spark, rows = 12000, seed = 19).cache()
    HypDB.analyze(df, "Lung_Cancer", "Car_Accident", Datasets.cancerAttrs, "0", cfg)
  }

  test("cancer: query is detected as biased") {
    assert(cancerReport.biasedTotal() || cancerReport.biasedDirect())
  }
  test("cancer: covariates are the true parents {Smoking, Genetics}") {
    assert(cancerReport.covariates.toSet == Set("Smoking", "Genetics"),
      s"got ${cancerReport.covariates}")
  }
  test("cancer: mediators include Fatigue and Attention_Disorder") {
    assert(Set("Fatigue", "Attention_Disorder").subsetOf(cancerReport.mediators.toSet),
      s"got ${cancerReport.mediators}")
  }
  test("cancer: original effect significant, total stays, direct vanishes") {
    assert(cancerReport.originalSignificance.pValue < 0.01)
    val total = cancerReport.totalEffect.get
    val d = total.answers("1") - total.answers("0")
    assert(d > 0.08, s"total diff=$d")
    assert(total.significance.pValue < 0.01)
    val direct = cancerReport.directEffect.get
    val dd = direct.answers("1") - direct.answers("0")
    assert(math.abs(dd) < 0.06, s"direct diff=$dd")
  }
  test("cancer: Fatigue dominates Attention_Disorder in responsibility") {
    val rho = cancerReport.responsibilities.map(r => r.attribute -> r.rho).toMap
    assert(rho("Fatigue") > rho("Attention_Disorder"),
      s"got ${cancerReport.responsibilities}")
    assert(cancerReport.responsibilities.take(2).exists(_.attribute == "Fatigue"))
  }
  test("cancer: fine-grained triples accompany the top attributes") {
    assert(cancerReport.fineGrained.nonEmpty)
    cancerReport.fineGrained.values.foreach(ts => assert(ts.nonEmpty))
  }

  test("cancer: the phase timings cover the analyze call") {
    val df = Datasets.cancer(spark, rows = 12000, seed = 19).cache()
    val t0 = System.nanoTime()
    val r  = HypDB.analyze(df, "Lung_Cancer", "Car_Accident", Datasets.cancerAttrs, "0", cfg)
    val wall = (System.nanoTime() - t0) / 1e9
    assert(r.timings.keySet == Set("detection", "explanation", "resolution"))
    assert(r.timings.values.sum >= 0.95 * wall, s"timings ${r.timings} vs wall $wall s")
    df.unpersist()
  }

  // ------------------------------------------------------------ Flight --

  private lazy val flightReport: HypDB.Report = {
    val df = Datasets.flight(spark, rows = 40000, seed = 11)
      .select("Carrier", "Delayed", "Airport", "Year", "DepTime", "Month",
              "DayOfWeek", "AirportWAC", "FlightNum").cache()
    HypDB.analyze(df, "Carrier", "Delayed", Datasets.flightAttrs, "UA", cfg)
  }

  test("flight: biased w.r.t. the discovered covariates") {
    assert(flightReport.biasedTotal())
  }
  test("flight: Airport and Year discovered as covariates") {
    // the paper's own run also lists DepTime among the covariates and
    // mediating variables (§ 7.3, FlightData) — we accept the same
    val zs = flightReport.covariates.toSet
    assert(Set("Airport", "Year").subsetOf(zs), s"got $zs")
    assert(zs.subsetOf(Set("Airport", "Year", "DepTime")), s"got $zs")
  }
  test("flight: FD and key-like attributes are dropped") {
    assert(flightReport.dropped.contains("AirportWAC"))
    assert(flightReport.dropped.contains("FlightNum"))
  }
  test("flight: trend reverses after rewriting (Simpson's paradox resolved)") {
    val sql = flightReport.originalAnswers
    assert(sql("AA") < sql("UA")) // biased: AA looks better
    val adj = flightReport.totalEffect.get.answers
    assert(adj("AA") > adj("UA"), s"adjusted: $adj") // truth: UA is better
  }
  test("flight: Airport has the highest responsibility") {
    assert(flightReport.responsibilities.head.attribute == "Airport",
      s"got ${flightReport.responsibilities}")
  }

  // ---------------------------------------------------------- Berkeley --

  private lazy val berkeleyReport: HypDB.Report = {
    val df = Datasets.berkeley(spark).cache()
    HypDB.analyze(df, "Gender", "Accepted", Datasets.berkeleyAttrs, "Female", cfg)
  }

  test("berkeley: biased w.r.t. Department") {
    assert(berkeleyReport.biasedTotal())
    assert(berkeleyReport.covariates == Seq("Department"))
  }
  test("berkeley: rewriting reverses the gender gap") {
    val sql = berkeleyReport.originalAnswers
    assert(sql("Male") > sql("Female"))
    val adj = berkeleyReport.totalEffect.get.answers
    assert(adj("Female") > adj("Male"), s"adjusted $adj")
  }
  test("berkeley: Department gets full responsibility") {
    assert(berkeleyReport.responsibilities.head.attribute == "Department")
    assert(math.abs(berkeleyReport.responsibilities.head.rho - 1.0) < 1e-9)
  }

  // ----------------------------------------------------------- Staples --

  test("staples: association but no direct effect") {
    val df = Datasets.staples(spark, rows = 120000, seed = 17).cache()
    val r  = HypDB.analyze(df, "Income", "Price", Datasets.staplesAttrs, "low", cfg)
    assert(r.originalSignificance.pValue < 0.01)        // SQL shows an effect
    assert(r.mediators.contains("Distance"), s"got ${r.mediators}")
    val direct = r.directEffect.get
    val dd = direct.answers("high") - direct.answers("low")
    assert(math.abs(dd) < 0.01, s"direct diff=$dd")     // no direct effect
    df.unpersist()
  }
}
