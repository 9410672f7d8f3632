package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, StructField, StructType}
import scala.jdk.CollectionConverters._

/** Bias-resolving query rewriting (paper § 3.3) on sufficient statistics.
  *
  * Both rewrites need, per block of rows sharing (T, X, Z) values, only the
  * row count and, per outcome, Σy and the number of non-null y. Each
  * DataFrame entry point computes these `Block`s with one `groupBy` and
  * evaluates the query on the driver:
  *
  *  - `listing2` is the adjustment formula Eq. (2): average each outcome
  *    per (T, X, Z) block, keep only the Z blocks of a context X where
  *    every treatment level occurs (*exact matching*, the overlap
  *    requirement), and take the block-probability-weighted average. Block
  *    probabilities are renormalized over the data that survives pruning,
  *    per context X, as § 3.3 prescribes.
  *  - `eq3` is the mediator formula Eq. (3) for the natural direct
  *    effect: E-hat[Y | T=t, z, m] weighted by Pr(m | t0, z)·Pr(z).
  *
  * [[totalOnTable]] and [[originalOnTable]] feed the same kernels from a
  * contingency table. [[totalSql]] and [[ndeSql]] emit the equivalent SQL
  * so tests can diff against DuckDB.
  */
object Rewrite {

  private def avgCol(y: String)  = s"avg_$y"

  /** The rows of one (t, x, z) block: their count `n` and, per outcome,
    * Σy (`sums`) and the number of non-null y (`counts`).
    */
  private final case class Block(t: Any, x: Seq[Any], z: Seq[Any], n: Long,
                                 sums: Seq[Double], counts: Seq[Long])

  /** One answer row: treatment value, context X, and per outcome the
    * average, or None when no block has a non-null y (SQL's NULL).
    */
  private type Answer = (Any, Seq[Any], Seq[Option[Double]])

  /** Σ avg(y | block) · weight per (t, x) over the weighted blocks. */
  private def average(weighted: Iterable[(Block, Double)]): Seq[Answer] =
    weighted.groupBy { case (b, _) => (b.t, b.x) }.toSeq.map { case ((t, x), bw) =>
      (t, x, bw.head._1.sums.indices.map { j =>
        val live = bw.filter(_._1.counts(j) > 0)
        Option.when(live.nonEmpty)(live.iterator.map { case (b, w) => b.sums(j) / b.counts(j) * w }.sum)
      })
    }

  /** Listing 2: per (t, x), Σ_z avg(y | t, x, z) · n(x, z) / n(x) over the
    * z blocks of x that hold every treatment level; n(x) sums n(x, z) over
    * those blocks only.
    */
  private def listing2(blocks: Seq[Block]): Seq[Answer] = {
    val nT    = blocks.map(_.t).distinct.size
    val cells = blocks.groupBy(b => (b.x, b.z)).values
      .filter(_.map(_.t).distinct.size == nT).map(c => c -> c.map(_.n).sum)
    val nx    = cells.groupMapReduce(_._1.head.x)(_._2)(_ + _)
    average(cells.flatMap { case (c, n) => c.map(b => b -> n.toDouble / nx(b.x)) })
  }

  /** Eq. (3): per t, Σ_{z,m} avg(y | t, z, m) · Pr(m | t0, z) · Pr(z) over
    * the (z, m) cells that hold every treatment level, with the weights
    * renormalized to sum to 1. A block's `z` holds Z's values, then M's;
    * `k` = |Z|.
    */
  private def eq3(blocks: Seq[Block], t0: String, k: Int): Seq[Answer] = {
    val base = blocks.filter(b => b.t != null && b.t.toString == t0)
    require(base.nonEmpty, s"baseline treatment $t0 absent")
    def total(bs: Seq[Block], key: Block => Seq[Any]) = bs.groupMapReduce(key)(_.n)(_ + _)
    val (nz, n0zm, n0z) = (total(blocks, _.z.take(k)), total(base, _.z), total(base, _.z.take(k)))
    val nAll  = blocks.map(_.n).sum.toDouble
    val nT    = blocks.map(_.t).distinct.size
    val cells = blocks.groupBy(_.z).filter { case (_, c) => c.map(_.t).distinct.size == nT }
    val w0    = cells.keys.map { zm =>
      val z = zm.take(k)
      zm -> n0zm(zm).toDouble / n0z(z) * (nz(z) / nAll)
    }.toMap
    val wTot  = w0.values.sum
    average(cells.values.flatten.map(b => b -> w0(b.z) / wTot))
  }

  /** The blocks of `df` over (T, X, Z), from one distributed `groupBy`. */
  private def blocks(df: DataFrame, t: String, xs: Seq[String], zs: Seq[String],
                     ys: Seq[String]): Seq[Block] = {
    require(ys.nonEmpty, "need at least one outcome")
    val keys = t +: (xs ++ zs)
    val aggs = count(lit(1)) +: ys.flatMap(y => Seq(sum(col(y).cast("double")), count(col(y))))
    val k    = keys.size
    df.groupBy(keys.map(col): _*).agg(aggs.head, aggs.tail: _*).collect().toSeq.map { r =>
      Block(r.get(0), (1 to xs.size).map(r.get), (1 + xs.size until k).map(r.get), r.getLong(k),
            ys.indices.map(j => if (r.isNullAt(k + 1 + 2 * j)) 0.0 else r.getDouble(k + 1 + 2 * j)),
            ys.indices.map(j => r.getLong(k + 2 + 2 * j)))
    }
  }

  /** The answers as a small local DataFrame: columns T and X, typed as in
    * `df`, then one double column avg_<y> per outcome.
    */
  private def toDf(df: DataFrame, t: String, xs: Seq[String], ys: Seq[String],
                   answers: Seq[Answer]): DataFrame = {
    val schema = StructType((t +: xs).map(df.schema(_)) ++ ys.map(y => StructField(avgCol(y), DoubleType)))
    val rows   = answers.map { case (tv, x, avgs) =>
      Row.fromSeq(tv +: x ++: avgs.map(_.map(Double.box).orNull))
    }
    df.sparkSession.createDataFrame(rows.asJava, schema)
  }

  /** The plain (possibly biased) group-by-average query of Listing 1. */
  def original(df: DataFrame, t: String, xs: Seq[String], ys: Seq[String]): DataFrame =
    toDf(df, t, xs, ys, average(blocks(df, t, xs, Nil, ys).map(_ -> 1.0)))

  /** Rewritten (unbiased) total-effect query.
    *
    * @param df already filtered by the WHERE condition C
    * @param t  treatment attribute
    * @param xs extra grouping attributes X (may be empty)
    * @param zs covariates Z
    * @param ys outcome attributes
    * @return one row per (T, X) with columns avg_<y> — the adjusted
    *         averages; contexts with no overlapping block are absent
    */
  def total(df: DataFrame, t: String, xs: Seq[String], zs: Seq[String],
            ys: Seq[String]): DataFrame =
    if (zs.isEmpty) original(df, t, xs, ys) // no covariates: the original query is already unbiased
    else toDf(df, t, xs, ys, listing2(blocks(df, t, xs, zs, ys)))

  /** Natural-direct-effect query (Eq. 3): per treatment level t,
    * DE(t) = Σ_{z,m} E[Y | T=t, z, m] · Pr(m | t0, z) · Pr(z),
    * restricted (and renormalized) to (z, m) cells where every treatment
    * level occurs. The NDE of t1 vs t0 is DE(t1) − DE(t0).
    *
    * @param t0 baseline (control) treatment value
    */
  def nde(df: DataFrame, t: String, t0: String, zs: Seq[String], ms: Seq[String],
          ys: Seq[String]): DataFrame = {
    require(ms.nonEmpty, "need at least one mediator for the direct effect")
    toDf(df, t, Nil, ys, eq3(blocks(df, t, Nil, zs ++ ms, ys), t0, zs.size))
  }

  // SQL fragments of the oracle queries: join conditions (true when `cs`
  // is empty), select lists with a trailing comma, GROUP BY clauses
  private def on(a: String, b: String, cs: Seq[String]) =
    if (cs.isEmpty) "1=1" else cs.map(c => s"$a.$c = $b.$c").mkString(" AND ")
  private def sel(cs: Seq[String], prefix: String = "") = cs.map(c => s"$prefix$c, ").mkString
  private def groupBy(cs: Seq[String]) = if (cs.isEmpty) "" else cs.mkString("GROUP BY ", ", ", "")
  private def avgSel(ys: Seq[String]) = ys.map(y => s"avg(CAST($y AS DOUBLE)) AS avg_$y").mkString(", ")

  /** The Listing-2 SQL equivalent of [[total]] (same renormalization),
    * for the DuckDB oracle. `table` is the registered input table name.
    */
  def totalSql(table: String, t: String, xs: Seq[String], zs: Seq[String],
               ys: Seq[String], nTreatments: Int): String = {
    val xz     = xs ++ zs
    val sumSel = ys.map(y => s"sum(b.avg_$y * w.__c / n.__tot) AS avg_$y").mkString(", ")
    s"""WITH blocks AS (
       |  SELECT $t, ${sel(xz)}${avgSel(ys)} FROM $table ${groupBy(t +: xz)}
       |), weights AS (
       |  SELECT ${sel(xz)}count(*) AS __c FROM $table ${groupBy(xz)}
       |  HAVING count(DISTINCT $t) = $nTreatments
       |), norm AS (
       |  SELECT ${sel(xs)}sum(__c) AS __tot FROM weights ${groupBy(xs)}
       |)
       |SELECT b.$t, ${sel(xs, "b.")}$sumSel
       |FROM blocks b JOIN weights w ON ${on("b", "w", xz)} JOIN norm n ON ${on("w", "n", xs)}
       |${groupBy(("b." + t) +: xs.map("b." + _))}
       |""".stripMargin
  }

  /** The Eq.-3 SQL equivalent of [[nde]] (same overlap rule and
    * renormalization), for the DuckDB oracle.
    */
  def ndeSql(table: String, t: String, t0: String, zs: Seq[String], ms: Seq[String],
             ys: Seq[String], nTreatments: Int): String = {
    val zm     = zs ++ ms
    val sumSel = ys.map(y => s"sum(b.avg_$y * w.__w0 / (SELECT sum(__w0) FROM w)) AS avg_$y").mkString(", ")
    val perZ   = if (zs.isEmpty) "" else zs.mkString("PARTITION BY ", ", ", "")
    s"""WITH cells AS (
       |  SELECT $t, ${sel(zm)}${avgSel(ys)} FROM $table ${groupBy(t +: zm)}
       |), complete AS (
       |  SELECT ${zm.mkString(", ")} FROM $table ${groupBy(zm)} HAVING count(DISTINCT $t) = $nTreatments
       |), m_given AS (
       |  SELECT ${sel(zm)}CAST(count(*) AS DOUBLE) / sum(count(*)) OVER ($perZ) AS __pm
       |  FROM $table WHERE $t = '${t0.replace("'", "''")}' ${groupBy(zm)}
       |), pz AS (
       |  SELECT ${sel(zs)}CAST(count(*) AS DOUBLE) / (SELECT count(*) FROM $table) AS __pz
       |  FROM $table ${groupBy(zs)}
       |), w AS (
       |  SELECT ${sel(zm, "c.")}m.__pm * p.__pz AS __w0
       |  FROM complete c JOIN m_given m ON ${on("c", "m", zm)} JOIN pz p ON ${on("c", "p", zs)}
       |)
       |SELECT b.$t, $sumSel FROM cells b JOIN w ON ${on("b", "w", zm)} GROUP BY b.$t
       |""".stripMargin
  }

  /** The (T, Z) blocks of a contingency table over (T, Z, Y) whose outcome
    * Y takes numeric values.
    */
  private def blocksOf(ct: ContingencyTable, t: String, zs: Seq[String], y: String): Seq[Block] =
    ct.marginal((t +: zs) :+ y).counts.groupBy(_._1.init).toSeq.map { case (k, cells) =>
      val n = cells.values.sum
      Block(k.head, Nil, k.tail, n, Seq(cells.iterator.map { case (c, m) => c.last.toDouble * m }.sum), Seq(n))
    }

  private def byTreatment(answers: Seq[Answer]): Map[String, Double] =
    answers.collect { case (t, _, Seq(Some(a))) => t.toString -> a }.toMap

  /** Listing 2 on a contingency table over (T, Z, Y) with a numeric
    * outcome Y: the adjusted avg(Y) per treatment level. Used by the Q1
    * sweep, where thousands of rewritten queries share one materialized
    * table.
    */
  def totalOnTable(ct: ContingencyTable, t: String, zs: Seq[String], y: String)
      : Map[String, Double] =
    byTreatment(listing2(blocksOf(ct, t, zs, y)))

  /** The plain group-by-average answers from a contingency table. */
  def originalOnTable(ct: ContingencyTable, t: String, y: String): Map[String, Double] =
    byTreatment(average(blocksOf(ct, t, Nil, y).map(_ -> 1.0)))

  /** Difference avg(t1) − avg(t0) of a (T, avg_y) result, per context X. */
  def diff(result: DataFrame, t: String, t1: String, t0: String, y: String): Double = {
    val rows = result.select(col(t).cast("string"), col(avgCol(y))).collect()
    val m    = rows.map(r => r.getString(0) -> r.getDouble(1)).toMap
    m.getOrElse(t1, Double.NaN) - m.getOrElse(t0, Double.NaN)
  }
}
