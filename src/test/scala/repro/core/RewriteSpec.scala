package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import scala.util.Random

class RewriteSpec extends SparkSpec {
  import spark.implicits._

  /** Deterministic confounded data: Z ∈ {u, v}; treatment skewed by Z;
    * outcome driven by Z and slightly by T.
    */
  private lazy val confounded = {
    val rng = new Random(3)
    (1 to 6000).map { _ =>
      val z = if (rng.nextDouble() < 0.5) "u" else "v"
      val t = if (z == "u") (if (rng.nextDouble() < 0.8) "t1" else "t0")
              else (if (rng.nextDouble() < 0.2) "t1" else "t0")
      val base = if (z == "u") 0.7 else 0.2
      val y = if (rng.nextDouble() < base + (if (t == "t1") 0.05 else 0.0)) 1 else 0
      (t, z, y)
    }.toDF("T", "Z", "Y")
  }

  test("original query matches DuckDB") {
    val got = Rewrite.original(confounded, "T", Nil, Seq("Y"))
    Oracle.assertEquivalent(got,
      "SELECT T, avg(CAST(Y AS DOUBLE)) AS avg_Y FROM d GROUP BY T",
      "d" -> confounded)
  }

  test("total rewrite matches the Listing-2 SQL on DuckDB") {
    val got = Rewrite.total(confounded, "T", Nil, Seq("Z"), Seq("Y"))
    val sql = Rewrite.totalSql("d", "T", Nil, Seq("Z"), Seq("Y"), nTreatments = 2)
    Oracle.assertEquivalent(got, sql, "d" -> confounded)
  }

  test("total rewrite with grouping attributes matches DuckDB") {
    val df = confounded.withColumn("X", (rand(7) * 2).cast("int").cast("string"))
    val got = Rewrite.total(df, "T", Seq("X"), Seq("Z"), Seq("Y"))
    val sql = Rewrite.totalSql("d", "T", Seq("X"), Seq("Z"), Seq("Y"), nTreatments = 2)
    Oracle.assertEquivalent(got, sql, "d" -> df)
  }

  test("total rewrite with two outcomes matches DuckDB") {
    val df = confounded.withColumn("Y2", (col("Y") + 1) % 2)
    val got = Rewrite.total(df, "T", Nil, Seq("Z"), Seq("Y", "Y2"))
    val sql = Rewrite.totalSql("d", "T", Nil, Seq("Z"), Seq("Y", "Y2"), nTreatments = 2)
    Oracle.assertEquivalent(got, sql, "d" -> df)
  }

  test("rewrite without covariates equals the original query") {
    val a = Rewrite.total(confounded, "T", Nil, Nil, Seq("Y")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    val b = Rewrite.original(confounded, "T", Nil, Seq("Y")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(a.keySet == b.keySet)
    a.keySet.foreach(k => assert(math.abs(a(k) - b(k)) < 1e-12))
  }

  test("on balanced data the rewrite barely moves the answer") {
    val rng = new Random(4)
    val balanced = (1 to 8000).map { _ =>
      val z = if (rng.nextDouble() < 0.5) "u" else "v"
      val t = if (rng.nextDouble() < 0.5) "t1" else "t0" // T ⊥ Z
      val y = if (rng.nextDouble() < (if (z == "u") 0.7 else 0.3)) 1 else 0
      (t, z, y)
    }.toDF("T", "Z", "Y")
    val orig = Rewrite.diff(Rewrite.original(balanced, "T", Nil, Seq("Y")), "T", "t1", "t0", "Y")
    val adj  = Rewrite.diff(Rewrite.total(balanced, "T", Nil, Seq("Z"), Seq("Y")), "T", "t1", "t0", "Y")
    assert(math.abs(orig - adj) < 0.02, s"orig=$orig adj=$adj")
  }

  test("adjustment removes pure confounding (no real effect)") {
    val rng = new Random(5)
    val spurious = (1 to 20000).map { _ =>
      val z = if (rng.nextDouble() < 0.5) "u" else "v"
      val t = if (z == "u") (if (rng.nextDouble() < 0.85) "t1" else "t0")
              else (if (rng.nextDouble() < 0.15) "t1" else "t0")
      val y = if (rng.nextDouble() < (if (z == "u") 0.8 else 0.2)) 1 else 0 // Y ⊥ T | Z
      (t, z, y)
    }.toDF("T", "Z", "Y")
    val orig = Rewrite.diff(Rewrite.original(spurious, "T", Nil, Seq("Y")), "T", "t1", "t0", "Y")
    val adj  = Rewrite.diff(Rewrite.total(spurious, "T", Nil, Seq("Z"), Seq("Y")), "T", "t1", "t0", "Y")
    assert(orig > 0.3, s"orig=$orig should show a big spurious effect")
    assert(math.abs(adj) < 0.03, s"adj=$adj should be ~0")
  }

  test("exact matching drops blocks missing a treatment level") {
    val df = Seq(
      ("t0", "z1", 0), ("t1", "z1", 1), ("t0", "z1", 1),
      ("t0", "z2", 1), ("t0", "z2", 0) // z2 has no t1 → must be pruned
    ).toDF("T", "Z", "Y")
    val res = Rewrite.total(df, "T", Nil, Seq("Z"), Seq("Y")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    // only the z1 block survives: avg(t0, z1) = 0.5, avg(t1, z1) = 1.0
    assert(math.abs(res("t0") - 0.5) < 1e-12)
    assert(math.abs(res("t1") - 1.0) < 1e-12)
  }

  test("Simpson's paradox reverses under adjustment (hand-built table)") {
    // t1 wins overall but loses in each stratum
    def block(t: String, z: String, n1: Int, n0: Int) =
      Seq.fill(n1)((t, z, 1)) ++ Seq.fill(n0)((t, z, 0))
    val df = (
      block("t1", "easy", 81, 9) ++ block("t0", "easy", 9, 1) ++  // 0.9 vs 0.9
      block("t1", "hard", 2, 8) ++ block("t0", "hard", 27, 63)    // .2 vs .3
    ).toDF("T", "Z", "Y")
    val orig = Rewrite.diff(Rewrite.original(df, "T", Nil, Seq("Y")), "T", "t1", "t0", "Y")
    val adj  = Rewrite.diff(Rewrite.total(df, "T", Nil, Seq("Z"), Seq("Y")), "T", "t1", "t0", "Y")
    assert(orig > 0.2, s"orig=$orig")   // t1 looks much better overall
    assert(adj < 0.0, s"adj=$adj")      // but is worse within every stratum
  }

  test("NDE is ~0 when treatment affects outcome only through the mediator") {
    val rng = new Random(6)
    val chain = (1 to 20000).map { _ =>
      val t = if (rng.nextDouble() < 0.5) "t1" else "t0"
      val m = if (rng.nextDouble() < (if (t == "t1") 0.8 else 0.2)) "hi" else "lo"
      val y = if (rng.nextDouble() < (if (m == "hi") 0.7 else 0.3)) 1 else 0
      (t, m, y)
    }.toDF("T", "M", "Y")
    val total = Rewrite.diff(Rewrite.original(chain, "T", Nil, Seq("Y")), "T", "t1", "t0", "Y")
    val ndeDf = Rewrite.nde(chain, "T", t0 = "t0", zs = Nil, ms = Seq("M"), ys = Seq("Y"))
    val nde   = Rewrite.diff(ndeDf, "T", "t1", "t0", "Y")
    assert(total > 0.15, s"total=$total")
    assert(math.abs(nde) < 0.03, s"nde=$nde")
  }

  test("NDE recovers a genuine direct effect") {
    val rng = new Random(7)
    val direct = (1 to 20000).map { _ =>
      val t = if (rng.nextDouble() < 0.5) "t1" else "t0"
      val m = if (rng.nextDouble() < (if (t == "t1") 0.8 else 0.2)) "hi" else "lo"
      val p = (if (m == "hi") 0.4 else 0.2) + (if (t == "t1") 0.3 else 0.0)
      val y = if (rng.nextDouble() < p) 1 else 0
      (t, m, y)
    }.toDF("T", "M", "Y")
    val ndeDf = Rewrite.nde(direct, "T", "t0", Nil, Seq("M"), Seq("Y"))
    val nde   = Rewrite.diff(ndeDf, "T", "t1", "t0", "Y")
    assert(nde > 0.2 && nde < 0.4, s"nde=$nde should be ≈ 0.3")
  }

  test("NDE with covariates matches the no-covariate case when Z is noise") {
    val rng = new Random(8)
    val df = (1 to 15000).map { _ =>
      val z = if (rng.nextDouble() < 0.5) "a" else "b" // pure noise
      val t = if (rng.nextDouble() < 0.5) "t1" else "t0"
      val m = if (rng.nextDouble() < (if (t == "t1") 0.75 else 0.25)) "hi" else "lo"
      val y = if (rng.nextDouble() < (if (m == "hi") 0.65 else 0.35)) 1 else 0
      (t, z, m, y)
    }.toDF("T", "Z", "M", "Y")
    val n1 = Rewrite.diff(Rewrite.nde(df, "T", "t0", Nil, Seq("M"), Seq("Y")), "T", "t1", "t0", "Y")
    val n2 = Rewrite.diff(Rewrite.nde(df, "T", "t0", Seq("Z"), Seq("M"), Seq("Y")), "T", "t1", "t0", "Y")
    assert(math.abs(n1 - n2) < 0.03, s"n1=$n1 n2=$n2")
  }

  test("NDE matches the Eq.-3 SQL on DuckDB") {
    val rng = new Random(9)
    val sampled = (1 to 4000).map { _ =>
      val z = if (rng.nextDouble() < 0.4) "a" else "b"
      val t = if (rng.nextDouble() < (if (z == "a") 0.7 else 0.3)) "t1" else "t0"
      val m = if (rng.nextDouble() < (if (t == "t1") 0.7 else 0.3)) "hi" else "lo"
      val p = 0.2 + (if (m == "hi") 0.3 else 0.0) + (if (z == "a") 0.2 else 0.0) +
              (if (t == "t1") 0.1 else 0.0)
      (t, z, m, if (rng.nextDouble() < p) 1 else 0)
    }
    // the (b, rare) cell lacks t1: it carries Pr(m | t0, z) mass but must be pruned
    val df = (sampled ++ Seq(("t0", "b", "rare", 1), ("t0", "b", "rare", 0), ("t0", "b", "rare", 1)))
      .toDF("T", "Z", "M", "Y")
    val got = Rewrite.nde(df, "T", "t0", Seq("Z"), Seq("M"), Seq("Y"))
    val sql = Rewrite.ndeSql("d", "T", "t0", Seq("Z"), Seq("M"), Seq("Y"), nTreatments = 2)
    Oracle.assertEquivalent(got, sql, "d" -> df)
  }

  test("NDE requires a mediator and a present baseline") {
    val df = Seq(("t0", "m", 1), ("t1", "m", 0)).toDF("T", "M", "Y")
    intercept[IllegalArgumentException] { Rewrite.nde(df, "T", "t0", Nil, Nil, Seq("Y")) }
    intercept[IllegalArgumentException] { Rewrite.nde(df, "T", "tX", Nil, Seq("M"), Seq("Y")) }
  }

  test("totalOnTable agrees with the DataFrame rewrite") {
    val ct  = Contingency.fromDf(confounded, Seq("T", "Z", "Y"))
    val a   = Rewrite.totalOnTable(ct, "T", Seq("Z"), "Y")
    val b   = Rewrite.total(confounded, "T", Nil, Seq("Z"), Seq("Y")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(a.keySet == b.keySet)
    a.keySet.foreach(k => assert(math.abs(a(k) - b(k)) < 1e-9, s"$k: ${a(k)} vs ${b(k)}"))
  }

  test("originalOnTable agrees with the DataFrame original query") {
    val ct = Contingency.fromDf(confounded, Seq("T", "Z", "Y"))
    val a  = Rewrite.originalOnTable(ct, "T", "Y")
    val b  = Rewrite.original(confounded, "T", Nil, Seq("Y")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    a.keySet.foreach(k => assert(math.abs(a(k) - b(k)) < 1e-9))
  }

  test("totalOnTable applies exact matching like the DataFrame version") {
    val df = Seq(
      ("t0", "z1", 0), ("t1", "z1", 1), ("t0", "z1", 1),
      ("t0", "z2", 1), ("t0", "z2", 0)).toDF("T", "Z", "Y")
    val ct = Contingency.fromDf(df, Seq("T", "Z", "Y"))
    val a  = Rewrite.totalOnTable(ct, "T", Seq("Z"), "Y")
    assert(math.abs(a("t0") - 0.5) < 1e-12 && math.abs(a("t1") - 1.0) < 1e-12)
  }

  test("diff helper returns NaN for a missing level") {
    val res = Rewrite.original(confounded, "T", Nil, Seq("Y"))
    assert(Rewrite.diff(res, "T", "missing", "t0", "Y").isNaN)
  }
}
