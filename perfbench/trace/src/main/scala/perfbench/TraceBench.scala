package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.experiments.EndToEnd
import scala.collection.mutable.ArrayBuffer

/** `HypDB.analyze`, rebuilt phase by phase from the core modules' public
  * functions, each phase in a [[Tracer]] span. It must stay a mirror of
  * `analyze`: [[TraceBench]] checks that it gives the same Z, M and answers,
  * runs as many Spark jobs and tests as the untraced call, and that its
  * spans cover its own wall time.
  */
object TracedAnalyze {

  final case class Out(report: HypDB.Report, stats: CountingStats, cdTests: Long, cdStatsSeconds: Double)

  private def answersOf(result: DataFrame, t: String, y: String): Map[String, Double] =
    result.select(col(t).cast("string"), col(s"avg_$y")).collect()
      .map(r => r.getString(0) -> (if (r.isNullAt(1)) Double.NaN else r.getDouble(1)))
      .toMap

  def run(df: DataFrame, t: String, y: String, attrs: Seq[String], baseline: String,
          cfg: HypDB.Config, tr: Tracer): Out = {
    def significance(body: => TestResult): TestResult = tr.span("hypdb.significance")(body)

    val heDrops = tr.span("cd.keylike") {
      if (cfg.dropHighEntropy) CD.highEntropyAttributes(df, attrs.filterNot(a => a == t || a == y))
      else Set.empty[String]
    }
    val stats = new CountingStats(tr.span("stats.summary")(MaterializedStats(df, attrs.distinct)))

    val (testsBefore, statsBefore) = (cfg.cd.tester.counter.tests, stats.nanos)
    val (cdT, cdY) = tr.span("cd.covariates") {
      val cdT = CD.covariates(stats, t, y, cfg.cd, heDrops)
      (cdT, CD.covariates(stats, y, t, cfg.cd, heDrops))
    }
    val cdTests = cfg.cd.tester.counter.tests - testsBefore
    val cdStats = (stats.nanos - statsBefore) / 1e9
    val zs      = cdT.covariates.toSeq.sorted
    val ms      = (cdY.covariates - t).toSeq.sorted
    val biasTot = significance(HypDB.balanceTest(stats, t, zs, cfg))
    val biasDir = significance(HypDB.balanceTest(stats, t, (zs ++ ms).distinct, cfg))

    val origAns = tr.span("rewrite.original")(answersOf(Rewrite.original(df, t, Nil, Seq(y)), t, y))
    val origSig = significance(HypDB.effectSignificance(stats, t, y, Nil, cfg))

    val (resp, fine) = tr.span("explain") {
      val v    = (zs ++ ms).distinct
      val resp = if (v.nonEmpty) Explain.responsibilities(stats, t, v) else Nil
      (resp, resp.take(2).map(r =>
        r.attribute -> Explain.fineGrained(stats, t, y, r.attribute, cfg.fineGrainedK)).toMap)
    }

    val totalEff =
      if (zs.isEmpty) None
      else {
        val ans = tr.span("rewrite.total")(answersOf(Rewrite.total(df, t, Nil, zs, Seq(y)), t, y))
        Some(HypDB.Effect(ans, significance(HypDB.effectSignificance(stats, t, y, zs, cfg))))
      }
    val directEff =
      if (ms.isEmpty) None
      else {
        val zForNde = zs.filterNot(ms.contains)
        val ans = tr.span("rewrite.nde")(
          answersOf(Rewrite.nde(df, t, baseline, zForNde, ms, Seq(y)), t, y))
        Some(HypDB.Effect(ans,
          significance(HypDB.effectSignificance(stats, t, y, (zs ++ ms).distinct, cfg))))
      }

    Out(HypDB.Report(t, y, origAns, origSig, zs, ms, cdT.dropped ++ heDrops, cdT.usedFallback,
                     biasTot, biasDir, resp, fine, totalEff, directEff),
        stats, cdTests, cdStats)
  }

  /** The traced rebuild found what `analyze` found. */
  def sameReport(a: HypDB.Report, b: HypDB.Report): Unit = {
    def close(x: Double, y: Double) = x == y || math.abs(x - y) <= 1e-9
    def sameMap(m1: Map[String, Double], m2: Map[String, Double]) =
      m1.keySet == m2.keySet && m1.forall { case (k, v) => close(v, m2(k)) }
    def sameEffect(e1: Option[HypDB.Effect], e2: Option[HypDB.Effect]) = (e1, e2) match {
      case (Some(p), Some(q)) => sameMap(p.answers, q.answers) && close(p.significance.pValue, q.significance.pValue)
      case (None, None)       => true
      case _                  => false
    }
    val diffs = Seq(
      "Z"             -> (a.covariates == b.covariates),
      "M"             -> (a.mediators == b.mediators),
      "dropped"       -> (a.dropped == b.dropped),
      "plain answers" -> sameMap(a.originalAnswers, b.originalAnswers),
      "bias tests"    -> (close(a.biasTotal.pValue, b.biasTotal.pValue) &&
                          close(a.biasDirect.pValue, b.biasDirect.pValue)),
      "total effect"  -> sameEffect(a.totalEffect, b.totalEffect),
      "direct effect" -> sameEffect(a.directEffect, b.directEffect)).collect { case (what, false) => what }
    if (diffs.nonEmpty)
      throw new AssertionError(s"traced rebuild differs from analyze in ${diffs.mkString(", ")}: " +
                               s"Z ${a.covariates} vs ${b.covariates}, M ${a.mediators} vs ${b.mediators}")
  }
}

/** The per-layer metrics, in output order, with their units. Each traced
  * call gives one sample of raw sums; the run reports means per call.
  * Every traced run reports every metric; on `flight_sweep`, which runs
  * none of the `analyze` phases, those phases read 0.
  */
object PerLayer {
  val metrics: Seq[(String, String)] = Seq(
    "cd.keylike_s" -> "s", "cd.keylike_jobs" -> "count",
    "stats.summary_s" -> "s", "stats.summary_jobs" -> "count",
    "stats.summary_shuffle_bytes" -> "bytes", "stats.summary_cells" -> "count",
    "stats.contingency_calls" -> "count", "stats.contingency_distinct_sets" -> "count",
    "stats.contingency_s" -> "s", "stats.cells_folded" -> "count",
    "stats.entropy_calls" -> "count", "stats.entropy_evals" -> "count",
    "stats.entropy_hit_ratio" -> "ratio", "stats.entropy_s" -> "s",
    "cd.covariates_s" -> "s", "cd.self_s" -> "s", "cd.tests" -> "count",
    "hypdb.significance_s" -> "s", "hypdb.significance_calls" -> "count",
    "explain.s" -> "s",
    "rewrite.original_s" -> "s", "rewrite.original_jobs" -> "count",
    "rewrite.total_s" -> "s", "rewrite.total_jobs" -> "count",
    "rewrite.nde_s" -> "s", "rewrite.nde_jobs" -> "count",
    "spark.jobs" -> "count", "spark.stages" -> "count", "spark.tasks" -> "count",
    "spark.shuffle_bytes" -> "bytes", "spark.task_s" -> "s", "spark.job_wall_s" -> "s",
    "driver.s" -> "s",
    "trace.query_s" -> "s", "trace.coverage" -> "ratio", "trace.overhead_ratio" -> "ratio")

  /** Spark totals, the driver split and the drift guard's times of one pair. */
  def common(p: Pair[_, _], sc: SparkCounters): Map[String, Double] = {
    val traced  = sc.traced
    val jobWall = SparkCounters.unionSeconds(traced.flatMap(_.jobIntervals))
    Map(
      "spark.jobs"          -> traced.map(_.jobs).sum.toDouble,
      "spark.stages"        -> traced.map(_.stages).sum.toDouble,
      "spark.tasks"         -> traced.map(_.tasks).sum.toDouble,
      "spark.shuffle_bytes" -> traced.map(_.shuffleBytes).sum.toDouble,
      "spark.task_s"        -> traced.map(_.taskMs).sum / 1e3,
      "spark.job_wall_s"    -> jobWall,
      "driver.s"            -> (p.tracedS - jobWall),
      "trace.query_s"       -> p.tracedS,
      "trace.spans_s"       -> p.tr.total,
      "trace.untraced_s"    -> p.untracedS)
  }

  def flight(p: Pair[_, _], sc: SparkCounters, out: TracedAnalyze.Out): Map[String, Double] = {
    val (tr, st) = (p.tr, out.stats)
    def jobs(span: String) = sc.span(span).jobs.toDouble
    common(p, sc) ++ Map(
      "cd.keylike_s"                    -> tr.seconds("cd.keylike"),
      "cd.keylike_jobs"                 -> jobs("cd.keylike"),
      "stats.summary_s"                 -> tr.seconds("stats.summary"),
      "stats.summary_jobs"              -> jobs("stats.summary"),
      "stats.summary_shuffle_bytes"     -> sc.span("stats.summary").shuffleBytes.toDouble,
      "stats.summary_cells"             -> st.cells.toDouble,
      "stats.contingency_calls"         -> st.contingencyCalls.toDouble,
      "stats.contingency_distinct_sets" -> st.distinctSets.size.toDouble,
      "stats.contingency_s"             -> st.contingencyNanos / 1e9,
      "stats.cells_folded"              -> st.cellsFolded.toDouble,
      "stats.entropy_calls"             -> st.entropyCalls.toDouble,
      "stats.entropy_evals"             -> st.entropyEvaluations.toDouble,
      "stats.entropy_s"                 -> st.entropyNanos / 1e9,
      "cd.covariates_s"                 -> tr.seconds("cd.covariates"),
      "cd.self_s"                       -> (tr.seconds("cd.covariates") - out.cdStatsSeconds),
      "cd.tests"                        -> out.cdTests.toDouble,
      "hypdb.significance_s"            -> tr.seconds("hypdb.significance"),
      "hypdb.significance_calls"        -> tr.entries("hypdb.significance").toDouble,
      "explain.s"                       -> tr.seconds("explain"),
      "rewrite.original_s"              -> tr.seconds("rewrite.original"),
      "rewrite.original_jobs"           -> jobs("rewrite.original"),
      "rewrite.total_s"                 -> tr.seconds("rewrite.total"),
      "rewrite.total_jobs"              -> jobs("rewrite.total"),
      "rewrite.nde_s"                   -> tr.seconds("rewrite.nde"),
      "rewrite.nde_jobs"                -> jobs("rewrite.nde"))
  }

  /** Means per traced call; the ratios are taken over the sums. */
  def summarize(samples: Seq[Map[String, Double]]): Seq[Metric] = {
    val k = samples.size.toDouble
    def sum(name: String) = samples.map(_.getOrElse(name, 0.0)).sum
    metrics.map { case (name, unit) =>
      val v = name match {
        case "stats.entropy_hit_ratio" =>
          val calls = sum("stats.entropy_calls")
          if (calls == 0) 0.0 else 1.0 - sum("stats.entropy_evals") / calls
        case "trace.coverage"       => sum("trace.spans_s") / sum("trace.query_s")
        case "trace.overhead_ratio" => sum("trace.query_s") / sum("trace.untraced_s")
        case _                      => sum(name) / k
      }
      Metric(name, v, unit)
    }
  }
}

/** One timed step of the traced run: the entry point untraced, in its own
  * listener span, and the call traced by `tr`, on the same input.
  */
final case class Pair[A, B](untraced: A, untracedS: Double, traced: B, tracedS: Double, tr: Tracer)

object Pair {
  /** The least share of the traced call's wall time its spans must cover. */
  val MinCoverage = 0.95

  /** Runs both calls in the given order, with the Spark counters covering
    * exactly these two calls.
    */
  def run[A, B](spark: SparkSession, counters: SparkCounters, tracedFirst: Boolean)
               (untraced: => A)(traced: Tracer => B): Pair[A, B] = {
    val sc = spark.sparkContext
    SparkCounters.drain(sc)
    counters.reset()
    val (outer, tr) = (new Tracer(spark), new Tracer(spark))
    def plain() = Clock.timed(outer.span(Tracer.Untraced)(untraced))
    def inner() = Clock.timed(traced(tr))
    val ((a, ta), (b, tb)) =
      if (tracedFirst) { val b = inner(); (plain(), b) } else { val a = plain(); (a, inner()) }
    SparkCounters.drain(sc)
    Pair(a, ta, b, tb, tr)
  }

  /** The drift guard: the traced call ran as many Spark jobs as the
    * untraced one, and its spans cover at least [[MinCoverage]] of its wall
    * time. Either failing means the rebuild no longer mirrors the program.
    */
  def guard(p: Pair[_, _], counters: SparkCounters): Unit = {
    val (plainJobs, tracedJobs) = (counters.span(Tracer.Untraced).jobs, counters.traced.map(_.jobs).sum)
    Checks.ensure(plainJobs == tracedJobs, s"untraced call ran $plainJobs Spark jobs, traced $tracedJobs")
    val coverage = p.tr.total / p.tracedS
    Checks.ensure(coverage >= MinCoverage, f"spans cover $coverage%.3f of the traced call's wall time")
  }
}

/** The traced run: per-layer metrics for one workload. Each timed step is a
  * [[Pair]]. The second call of a pair runs warmer (Spark reuses the code
  * it generated for the first), so pairs alternate which goes first.
  */
object TraceBench {

  def main(args: Array[String]): Unit = sys.exit(
    try run(Opts.parse(args))
    catch { case e: Throwable => e.printStackTrace(); 1 })

  def run(opts: Opts): Int = {
    val wl         = Workload(opts.workload, opts.seed)
    val (spark, _) = Bench.setUp(wl, opts.workDir, times = 1)
    val counters   = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    val ledger     = new Ledger
    val samples    = ArrayBuffer.empty[Map[String, Double]]
    Phase.mark("set-up done")

    wl match {
      case fw: FlightWhere => traceFlight(spark, fw, counters, ledger, opts.seconds, samples)
      case sw: FlightSweep => traceSweep(spark, sw, counters, ledger, opts.seconds, samples)
    }
    Phase.mark(s"${samples.size} traced calls done")
    wl.checkCalls(ledger)
    Phase.mark("output checks done")
    Report.emit(ledger.failed == 0 && samples.nonEmpty, ledger, PerLayer.summarize(samples.toSeq))
    Session.stop(spark)
    0
  }

  /** Pairs until `seconds` have passed, and at least two, one in each order. */
  private def pairsLeft(t0: Double, seconds: Double, pairs: Int): Boolean =
    Clock.now - t0 < seconds || pairs < 2

  /** The whole relation first (Table 1 / Fig. 1, untraced), then traced
    * pairs over the WHERE contexts of the end-to-end run. Besides the
    * guard, each pair must agree on the report and on the tests run.
    */
  private def traceFlight(spark: SparkSession, fw: FlightWhere, counters: SparkCounters,
                          ledger: Ledger, seconds: Double,
                          samples: ArrayBuffer[Map[String, Double]]): Unit = {
    val whole = Workload.attempt(ledger)(fw.analyze(None))
    whole.foreach { case (id, r) => ledger.check(id, "Fig. 1 shape")(Checks.fig1(r)) }
    fw.record(whole, None)
    Phase.mark("whole-relation call done")

    val t0    = Clock.now
    var pairs = 0
    while (pairsLeft(t0, seconds, pairs)) {
      val ctx        = fw.contexts.next()
      val id         = ledger.attempt()
      val (cfgU, cfgT) = (EndToEnd.defaultConfig, EndToEnd.defaultConfig)
      pairs += 1
      ledger.check(id, "untraced call, traced rebuild, or their agreement") {
        val p = Pair.run(spark, counters, tracedFirst = pairs % 2 == 0)(fw.analyze(Some(ctx), cfgU)) { tr =>
          TracedAnalyze.run(fw.contextDf(Some(ctx)), fw.t, fw.y, fw.attrs, fw.baseline, cfgT, tr)
        }
        fw.record(Some(id -> p.untraced), Some(ctx))
        samples += PerLayer.flight(p, counters, p.traced)
        TracedAnalyze.sameReport(p.untraced, p.traced.report)
        def tests(c: HypDB.Config) = (c.cd.tester.counter.tests, c.tester.counter.tests)
        Checks.ensure(tests(cfgU) == tests(cfgT),
                      s"tests (CD, significance): untraced ${tests(cfgU)}, traced ${tests(cfgT)}")
        Pair.guard(p, counters)
      }
    }
  }

  /** Traced pairs of sweep calls; only the Spark/driver split applies. */
  private def traceSweep(spark: SparkSession, sw: FlightSweep, counters: SparkCounters,
                         ledger: Ledger, seconds: Double,
                         samples: ArrayBuffer[Map[String, Double]]): Unit = {
    sw.warmUp(ledger)
    val t0 = Clock.now
    while (pairsLeft(t0, seconds, samples.size)) {
      val i = samples.size
      val p = Pair.run(spark, counters, tracedFirst = i % 2 == 1)(sw.callAt(ledger, i)) { tr =>
        tr.span("sweep")(sw.callAt(ledger, i))
      }
      samples += PerLayer.common(p, counters)
      p.traced.foreach { case (id, _) => ledger.check(id, "drift guard")(Pair.guard(p, counters)) }
    }
  }
}
