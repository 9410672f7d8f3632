package perfbench

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.duckdb.DuckDBConnection
import repro.core.{HypDB, Rewrite}
import repro.data.Datasets
import repro.experiments.{EndToEnd, FalseDiscovery}
import scala.collection.mutable.ArrayBuffer

/** A closed loop with one client: the next call is sent once the previous
  * one has returned. Output checks run after the timed loop.
  */
trait Workload {
  /** Generates and caches the workload's data; timed as set-up. */
  def load(spark: SparkSession): Unit
  def unload(): Unit
  /** Calls before the timed loop, outside its time. */
  def warmUp(ledger: Ledger): Unit
  /** The timed loop runs whole rounds of this many calls. */
  def round: Int
  /** One timed entry-point call; returns the queries it answered. */
  def call(ledger: Ledger): Int
  /** Checks the outputs of every call made so far. */
  def checkCalls(ledger: Ledger): Unit
}

object Workload {
  def apply(name: String, seed: Long): Workload = name match {
    case "flight_where" => new FlightWhere(seed)
    case "flight_sweep" => new FlightSweep(seed)
    case other          => throw new IllegalArgumentException(s"unknown workload $other")
  }

  /** `xs` rotated left by `seed` places: how a seed orders a fixed set of
    * inputs. (A shuffle seeded with small seeds gives the same order for
    * most of them.)
    */
  def rotate[A](xs: Seq[A], seed: Long): Seq[A] = {
    val k = Math.floorMod(seed, xs.size.toLong).toInt
    xs.drop(k) ++ xs.take(k)
  }

  /** Runs one call; a throw marks it failed. Returns its id and value. */
  def attempt[A](ledger: Ledger)(body: => A): Option[(Long, A)] = {
    val id = ledger.attempt()
    var out: Option[(Long, A)] = None
    ledger.check(id, "call threw") { out = Some(id -> body) }
    out
  }
}

/** `HypDB.analyze(Carrier → Delayed)` over FlightData (44k rows, 9
  * columns with the key-like FlightNum and the FD twin AirportWAC), in
  * WHERE contexts of 2 airports, 2 years and 6 months. Every run warms up
  * on the same two contexts, in the order the seed picks, and times the
  * same two others, always in the same order: the first timed call costs
  * more when it is the (MTJ, ROC) one. The traced run starts with the
  * whole relation (Table 1 / Fig. 1).
  */
final class FlightWhere(seed: Long) extends Workload {
  import FlightWhere.Context

  private var spark: SparkSession = _
  var data: DataFrame = _
  var t, y, baseline: String = _
  var attrs: Seq[String] = Nil

  val round = FlightWhere.timedPair.size

  /** The timed pair, always in the same order, over and over. */
  val contexts: Iterator[Context] = Iterator.continually(FlightWhere.timedPair).flatten
  private val warmUpContexts = Workload.rotate(FlightWhere.warmUpPair, seed)
  private val calls = ArrayBuffer.empty[(Long, Option[Context], HypDB.Report)]

  def load(s: SparkSession): Unit = {
    spark = s
    val (df, tt, yy, as, b) = EndToEnd.dataset(s, "FlightData")
    data = df.cache()
    data.count()
    t = tt; y = yy; attrs = as; baseline = b
  }

  def unload(): Unit = data.unpersist(blocking = true)

  def contextDf(ctx: Option[Context]): DataFrame = ctx.fold(data)(_.where(data))

  /** A fresh config per call: `Tester` seeds from its call counter. */
  def analyze(ctx: Option[Context], cfg: HypDB.Config = EndToEnd.defaultConfig): HypDB.Report =
    HypDB.analyze(contextDf(ctx), t, y, attrs, baseline, cfg)

  /** Two calls: after one, the next call still runs about 25% slower. */
  def warmUp(ledger: Ledger): Unit = warmUpContexts.foreach(callOn(ledger, _))

  def call(ledger: Ledger): Int = callOn(ledger, contexts.next())

  private def callOn(ledger: Ledger, ctx: Context): Int = {
    val r = Workload.attempt(ledger)(analyze(Some(ctx)))
    record(r, Some(ctx))
    r.size
  }

  /** Keeps a finished call's report for [[checkCalls]]. */
  def record(call: Option[(Long, HypDB.Report)], ctx: Option[Context]): Unit =
    call.foreach { case (id, r) =>
      Phase.mark(s"call $id on ${ctx.getOrElse("the whole relation")}: Z=${r.covariates.mkString(",")} " +
                 s"M=${r.mediators.mkString(",")}")
      calls += ((id, ctx, r))
    }

  def checkCalls(ledger: Ledger): Unit = {
    for ((id, ctx, r) <- calls)
      ledger.check(id, s"answers vs DuckDB on ${ctx.getOrElse("the whole relation")}") {
        Checks.answers(contextDf(ctx), r)
      }
  }
}

object FlightWhere {
  final case class Context(airports: Seq[String], years: Seq[String], months: Seq[String]) {
    def where(df: DataFrame): DataFrame =
      df.filter(col("Airport").isin(airports: _*) && col("Year").isin(years: _*) &&
                col("Month").isin(months: _*))
    override def toString: String =
      s"Airport∈{${airports.mkString(",")}} Year∈{${years.mkString(",")}} Month∈{${months.mkString(",")}}"
  }

  /** Four contexts, each keeping about 1/8 of the rows. The two timed ones
    * split the airports, the years and the months in halves, and so do the
    * two warm-up ones; within each pair, every value appears once. Fixing
    * the timed pair keeps the mix of query costs the same in every run.
    */
  private val (a, yr, mo) = (Datasets.flightAirports.sorted, (2012 to 2015).map(_.toString),
                             (1 to 12).map(_.toString))
  val timedPair: Seq[Context] = Seq(
    Context(Seq(a(0), a(1)), Seq(yr(0), yr(1)), mo.take(6)),
    Context(Seq(a(2), a(3)), Seq(yr(2), yr(3)), mo.drop(6)))
  val warmUpPair: Seq[Context] = Seq(
    Context(Seq(a(0), a(2)), Seq(yr(0), yr(2)), mo.filter(_.toInt % 2 == 1)),
    Context(Seq(a(1), a(3)), Seq(yr(1), yr(3)), mo.filter(_.toInt % 2 == 0)))
}

/** `FalseDiscovery.run` on 200k FlightData rows: each call answers 100
  * random WHERE queries from one summary built by the call. Every run times
  * the same four calls, with query seeds 101, 102, 101 and 102; its seed
  * rotates their order. The warm-up call answers the queries of seed 101,
  * so the timed calls repeat it.
  */
final class FlightSweep(seed: Long) extends Workload {
  val round          = 4
  val queriesPerCall = 100
  val warmUpSeed     = 101L
  val rows           = 200000L

  /** The query seeds of the timed calls, in this run's order. */
  private val querySeeds = Workload.rotate(Seq(101L, 102L), seed)

  private var spark: SparkSession = _
  private val calls = ArrayBuffer.empty[(Long, Long, FalseDiscovery.Result)] // id, query seed, result
  private var next  = 0

  /** Generates the rows each call summarizes, to warm the generator. */
  def load(s: SparkSession): Unit = {
    spark = s
    Datasets.flight(s, rows, seed = 11).write.format("noop").mode("overwrite").save()
  }

  def unload(): Unit = ()

  def sweep(queries: Int, querySeed: Long): FalseDiscovery.Result =
    FalseDiscovery.run(spark, nQueries = queries, rows = rows, seed = querySeed)

  def warmUp(ledger: Ledger): Unit = record(Workload.attempt(ledger)(sweep(queriesPerCall, warmUpSeed)), warmUpSeed)

  /** Answered queries are those `FalseDiscovery.run` keeps: it skips a
    * query whose context has under 500 rows or lacks a carrier.
    */
  def call(ledger: Ledger): Int = {
    val answered = callAt(ledger, next).fold(0)(_._2.outcomes.size)
    next += 1
    answered
  }

  /** Call `i` of the sequence; the traced run makes each call twice. */
  def callAt(ledger: Ledger, i: Int): Option[(Long, FalseDiscovery.Result)] = {
    val querySeed = querySeeds(i % querySeeds.size)
    record(Workload.attempt(ledger)(sweep(queriesPerCall, querySeed)), querySeed)
  }

  private def record(call: Option[(Long, FalseDiscovery.Result)],
                     querySeed: Long): Option[(Long, FalseDiscovery.Result)] = {
    call.foreach { case (id, r) => calls += ((id, querySeed, r)) }
    call
  }

  /** Every call has the paper's shape (Fig. 5a: more than 10% of the
    * significant SQL differences become insignificant after rewriting).
    * Calls with the same queries, the warm-up included, give the same
    * outcomes, `nSignificant` and fractions.
    */
  def checkCalls(ledger: Ledger): Unit = {
    val first = calls.groupBy(_._2).map { case (q, cs) => q -> cs.head._3 }
    for ((id, q, r) <- calls) {
      ledger.check(id, "Fig. 5a shape")(Checks.fig5a(r))
      ledger.check(id, s"same outcomes as the first call with query seed $q")(Checks.sameSweep(first(q), r))
    }
  }
}

/** Output checks; each throws on a wrong answer. */
object Checks {
  def ensure(ok: Boolean, msg: => String): Unit =
    if (!ok) throw new AssertionError(msg)

  /** The plain and the total-effect answers equal DuckDB running the plain
    * group-by and Listing 2 (`Rewrite.totalSql`) on the same context and Z.
    */
  def answers(ctx: DataFrame, r: HypDB.Report): Unit = {
    val (t, y, zs) = (r.treatment, r.outcome, r.covariates)
    val plain      = s"SELECT $t, avg(CAST($y AS DOUBLE)) AS avg_$y FROM ctx GROUP BY $t"
    val listing2   = Option.when(zs.nonEmpty)(Rewrite.totalSql("ctx", t, Nil, zs, Seq(y), r.originalAnswers.size))
    val sql        = DuckDb.query(ctx.select((Seq(t, y) ++ zs).distinct.map(col): _*), plain +: listing2.toSeq)
    same("plain answers", r.originalAnswers, sql.head)
    if (zs.nonEmpty) {
      val total = r.totalEffect.getOrElse(throw new AssertionError(s"Z = $zs but no total effect"))
      same("total-effect answers", total.answers, sql(1))
    }
  }

  private def same(what: String, got: Map[String, Double], want: Map[String, Double]): Unit =
    ensure(got.keySet == want.keySet && got.forall { case (k, v) => math.abs(v - want(k)) <= 1e-9 },
           s"$what: analyze gave $got, DuckDB $want")

  /** Fig. 1: the SQL answer favours AA, the adjusted one UA; Airport explains most. */
  def fig1(r: HypDB.Report): Unit = {
    ensure(r.biasedTotal(), "query must be detected as biased")
    ensure(r.originalAnswers("AA") < r.originalAnswers("UA"), s"SQL must favour AA: ${r.originalAnswers}")
    val adj = r.totalEffect.map(_.answers).getOrElse(Map.empty)
    ensure(adj.getOrElse("AA", 0.0) > adj.getOrElse("UA", 1.0), s"adjusted answer must favour UA: $adj")
    ensure(r.responsibilities.headOption.map(_.attribute).contains("Airport"),
           s"Airport must explain most: ${r.responsibilities}")
    ensure(Set("Airport", "Year").subsetOf(r.covariates.toSet), s"Z = ${r.covariates}")
    ensure(r.dropped.contains("AirportWAC") && r.dropped.contains("FlightNum"), s"dropped ${r.dropped}")
  }

  def fig5a(r: FalseDiscovery.Result): Unit = {
    ensure(r.nSignificant > 0, "no significant SQL difference")
    ensure(r.fracInsignificant > 0.10, s"only ${r.fracInsignificant} became insignificant")
  }

  def sameSweep(a: FalseDiscovery.Result, b: FalseDiscovery.Result): Unit = {
    ensure(a.nSignificant == b.nSignificant && a.fracInsignificant == b.fracInsignificant &&
           a.fracReversed == b.fracReversed,
           s"(${a.nSignificant}, ${a.fracInsignificant}, ${a.fracReversed}) vs " +
           s"(${b.nSignificant}, ${b.fracInsignificant}, ${b.fracReversed})")
    ensure(a.outcomes.size == b.outcomes.size && a.outcomes.zip(b.outcomes).forall { case (p, q) =>
      p.sqlSignificant == q.sqlSignificant && p.rwSignificant == q.rwSignificant &&
      math.abs(p.sqlDiff - q.sqlDiff) < 1e-9 && math.abs(p.rwDiff - q.rwDiff) < 1e-9
    }, "outcomes differ")
  }
}

/** DuckDB, in-process through duckdb_jdbc: the oracle for the answers. */
object DuckDb {
  /** Loads `df` as table `ctx` (every column as VARCHAR) and runs each
    * query; a query's rows are (key, value) pairs.
    */
  def query(df: DataFrame, queries: Seq[String]): Seq[Map[String, Double]] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      val cols = df.columns
      conn.createStatement.execute(s"CREATE TABLE ctx (${cols.map(c => s"$c VARCHAR").mkString(", ")})")
      val app = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, "ctx")
      df.select(cols.map(c => col(c).cast("string")): _*).collect().foreach { row =>
        app.beginRow()
        cols.indices.foreach(i => app.append(row.getString(i)))
        app.endRow()
      }
      app.close()
      queries.map { q =>
        val rs = conn.createStatement.executeQuery(q)
        Iterator.continually(rs).takeWhile(_.next()).map(r => r.getString(1) -> r.getDouble(2)).toMap
      }
    } finally conn.close()
  }
}
