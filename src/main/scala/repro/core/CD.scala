package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}
import repro.core.IndepTest.Tester
import scala.util.Random

/** Automatic covariate discovery (paper § 4, Alg. 1): given a treatment T,
  * find its parents PA_T in the (unknown) causal DAG directly from data.
  *
  * Phase I  collects every Z ∈ MB(T) for which T acts as a collider on a
  *          path to some W ∈ MB(T): ∃S ⊆ MB(Z) − {T} with
  *          (Z ⊥ W | S) ∧ (Z ⊮ W | S ∪ {T}).
  * Phase II discards candidates C not adjacent to T:
  *          ∃S ⊆ MB(T) − {C} with (T ⊥ C | S).
  *
  * Fallback (§ 4): if the result is empty (single parent / all parents
  * neighbors), use Z = MB(T) − {outcome}.
  */
object CD {

  final case class Config(
      tester: Tester = Tester(),
      maxCondSet: Int = 3,        // cap on |S| (paper: bounded by MB size, ≤ 8 observed)
      fdEpsilon: Double = 0.05,   // H(T|X) ≤ ε ∧ H(X|T) ≤ ε ⇒ approximate two-way FD
      dropHighEntropy: Boolean = true,
      fallbackToMb: Boolean = true, // § 4 fallback Z = MB(T) − {Y} when C = ∅
      // optional cross-call Markov-boundary cache (keyed by node), for
      // workloads that run CD on many treatments of the same relation
      mbCache: Option[scala.collection.mutable.Map[String, Set[String]]] = None)

  final case class Result(
      covariates: Set[String],      // Z = PA_T (or the fallback)
      markovBoundary: Set[String],
      dropped: Set[String],         // attributes removed as FDs / high-entropy
      usedFallback: Boolean,
      testsPerformed: Long)

  /** All subsets of `xs` of size ≤ `maxSize`, smallest first. */
  def subsets(xs: Seq[String], maxSize: Int): Iterator[Seq[String]] =
    (0 to math.min(maxSize, xs.size)).iterator.flatMap(k => xs.combinations(k))

  /** Attributes functionally tied to `t` (two-way approximate FD, § 4
    * "Dropping logical dependencies"): H(T|X) ≈ 0 and H(X|T) ≈ 0.
    */
  def fdAttributes(stats: StatsProvider, t: String, eps: Double): Set[String] =
    stats.attributes.filter { x =>
      x != t &&
      stats.conditionalEntropy(Seq(t), Seq(x)) <= eps &&
      stats.conditionalEntropy(Seq(x), Seq(t)) <= eps
    }.toSet

  /** Pairwise two-way approximate FDs over the whole attribute pool
    * (e.g. AirportWAC ⇔ Airport): such informationally-equivalent twins
    * isolate each other's Markov boundaries, so one of each pair must go.
    * We keep the lexicographically-first attribute of every FD clique
    * (deterministic, and keeps "Airport" over "AirportWAC").
    */
  def pairwiseFdDrops(stats: StatsProvider, attrs: Seq[String], eps: Double,
                      protect: Set[String] = Set.empty): Set[String] = {
    val sorted = attrs.sorted
    val dropped = scala.collection.mutable.Set.empty[String]
    for (i <- sorted.indices; j <- i + 1 until sorted.size) {
      val (a, b) = (sorted(i), sorted(j))
      if (!dropped(a) && !dropped(b) &&
          stats.conditionalEntropy(Seq(a), Seq(b)) <= eps &&
          stats.conditionalEntropy(Seq(b), Seq(a)) <= eps) {
        // drop the later one unless it is protected (treatment/outcome)
        if (!protect(b)) dropped += b
        else if (!protect(a)) dropped += a
      }
    }
    dropped.toSet
  }

  /** High-entropy (key-like) attributes whose entropy depends on sample
    * size (§ 4): compute Ĥ(X) on subsamples of two sizes; for a genuine
    * categorical attribute the estimates agree, for an ID-like attribute
    * entropy tracks log(sample size). We flag X when the entropy gap
    * across sample sizes exceeds what the Miller-Madow noise explains.
    */
  def highEntropyAttributes(df: DataFrame, attrs: Seq[String], seed: Long = 7,
                            gapThreshold: Double = 0.25): Set[String] = {
    val n = df.count()
    if (n < 200 || attrs.isEmpty) return Set.empty
    // both samples in one aggregation, told apart by a tag column
    def sample(size: Double, s: Long, tag: String) =
      df.sample(withReplacement = false, math.min(1.0, size / n), s)
        .select(lit(tag).as("__sample") +: attrs.distinct.map(col): _*)
    val both = Contingency.fromDf(sample(200, seed, "small").union(sample(2000, seed + 1, "large")),
                                  "__sample" +: attrs.distinct)
    val (small, large) = (both.restrict("__sample", "small"), both.restrict("__sample", "large"))
    attrs.filter { a =>
      val hs = Entropy.millerMadow(small, Seq(a))
      val hl = Entropy.millerMadow(large, Seq(a))
      hl - hs > gapThreshold * math.max(1.0, hs)
    }.toSet
  }

  /** Run Alg. 1 over the attributes of `stats`, excluding `outcome` from
    * the covariates (it is in MB(T) whenever T causes it).
    */
  def covariates(stats: StatsProvider, t: String, outcome: String,
                 cfg: Config = Config(),
                 precomputedDrops: Set[String] = Set.empty): Result = {
    val tester = cfg.tester
    val before = tester.counter.tests

    // -- dropping logical dependencies ----------------------------------
    val fds  = fdAttributes(stats, t, cfg.fdEpsilon) ++
               pairwiseFdDrops(stats, stats.attributes, cfg.fdEpsilon,
                               protect = Set(t, outcome))
    val dropped = fds ++ precomputedDrops - t
    val pool    = stats.attributes.filterNot(a => a == t || dropped.contains(a))

    // -- Markov boundary of T -------------------------------------------
    def boundary(x: String): Set[String] = cfg.mbCache match {
      case Some(cache) =>
        // cached boundaries are computed over the full pool, then
        // restricted — sound because MB is monotone under attribute drop
        cache.getOrElseUpdate(x, MarkovBoundary.growShrink(stats, x, tester, Some(pool)))
          .intersect(pool.toSet)
      case None => MarkovBoundary.growShrink(stats, x, tester, Some(pool))
    }
    val mbT = boundary(t)

    // -- Phase I (single pass: collect z and every witness w) ------------
    var c = Set.empty[String]
    for (z <- mbT if !c.contains(z)) {
      val mbZ   = boundary(z)
      val sPool = (mbZ - t).toSeq.sorted
      val it = subsets(sPool, cfg.maxCondSet)
      var done = false
      while (it.hasNext && !done) {
        val s = it.next()
        // first witness suffices: a parent acting as W gets its own turn
        // as Z, and phase II prunes non-parents that slip in
        val witness = mbT.find { w =>
          w != z && !s.contains(w) &&
          tester.independent(stats, z, w, s) &&
          tester.dependent(stats, z, w, (s :+ t).sorted)
        }
        witness.foreach { w => c += z; c += w; done = true }
      }
    }

    // -- Phase II ---------------------------------------------------------
    for (cand <- c) {
      val sPool = (mbT - cand).toSeq.sorted
      val severed = subsets(sPool, cfg.maxCondSet).exists { s =>
        tester.independent(stats, t, cand, s)
      }
      if (severed) c -= cand
    }

    val z0 = c - outcome
    val (z, fallback) =
      if (z0.nonEmpty) (z0, false)
      else if (cfg.fallbackToMb) (mbT - outcome, true) // § 4 fallback: Z = MB(T) − {Y}
      else (Set.empty[String], false)

    Result(z, mbT, dropped, fallback, tester.counter.tests - before)
  }
}
