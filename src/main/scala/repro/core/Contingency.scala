package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** A k-way contingency table: counts of every distinct value combination of
  * a set of attributes (§ 5 of the paper). Values are kept as strings so a
  * single representation serves every column type after aggregation.
  *
  * The table is small (bounded by the number of distinct combinations
  * actually present in the data), so once built by a distributed
  * `groupBy().count()` it lives on the driver and every marginalization /
  * restriction is a cheap in-memory fold — this is exactly the paper's
  * "summarize into contingency tables" optimization over raw-data passes.
  *
  * @param attrs  attribute names, fixing the coordinate order of `counts` keys
  * @param counts map from value tuple (aligned with `attrs`) to frequency
  */
final case class ContingencyTable(attrs: Vector[String], counts: Map[Vector[String], Long]) {

  /** Total number of tuples summarized by this table. */
  val n: Long = counts.valuesIterator.sum

  /** Number of distinct value combinations present (the `m` of Miller-Madow). */
  def distinctCount: Int = counts.size

  require(attrs.distinct.size == attrs.size, s"duplicate attributes in $attrs")

  private def indexOf(attr: String): Int = {
    val i = attrs.indexOf(attr)
    require(i >= 0, s"attribute $attr not in $attrs")
    i
  }

  /** Marginal table over a subset of attributes, by summation (§ 5). */
  def marginal(sub: Seq[String]): ContingencyTable = {
    val subV = sub.toVector
    if (subV == attrs) return this
    val idx = subV.map(indexOf)
    val m   = counts.foldLeft(Map.empty[Vector[String], Long]) { case (acc, (k, c)) =>
      val kk = idx.map(k).toVector
      acc.updated(kk, acc.getOrElse(kk, 0L) + c)
    }
    ContingencyTable(subV, m)
  }

  /** Sub-table of tuples with `attr = value`, dropping the fixed column. */
  def restrict(attr: String, value: String): ContingencyTable = {
    val i = indexOf(attr)
    val m = counts.collect {
      case (k, c) if k(i) == value => (k.patch(i, Nil, 1), c)
    }
    ContingencyTable(attrs.patch(i, Nil, 1), m)
  }

  /** Distinct values of one attribute, sorted for determinism. */
  def domain(attr: String): Vector[String] = {
    val i = indexOf(attr)
    counts.keysIterator.map(_(i)).toVector.distinct.sorted
  }

  /** Group the table by the values of `by`: one sub-table per group, with
    * the `by` columns removed. Used to iterate over `z ∈ Π_Z(D)` in MIT.
    */
  def groupBy(by: Seq[String]): Map[Vector[String], ContingencyTable] = {
    val idxBy   = by.map(indexOf).toVector
    val keepIdx = attrs.indices.filterNot(idxBy.contains).toVector
    val keep    = keepIdx.map(attrs)
    counts
      .groupBy { case (k, _) => idxBy.map(k) }
      .map { case (g, m) =>
        g -> ContingencyTable(keep, m.map { case (k, c) => keepIdx.map(k) -> c })
      }
  }

  /** Collapse the attributes `v` into one compound attribute `name`, next
    * to the kept attributes `keep`, so the 2-variable tests apply with a
    * set of attributes on one side (Def. 3.1). A compound value joins the
    * values of `v`, in `v`'s order, with "|".
    */
  def compound(keep: Seq[String], v: Seq[String], name: String): ContingencyTable = {
    val (ik, iv) = (keep.map(indexOf).toVector, v.map(indexOf))
    ContingencyTable(keep.toVector :+ name,
      counts.groupBy { case (k, _) => ik.map(k) :+ iv.map(k).mkString("|") }
        .map { case (k, g) => k -> g.values.sum })
  }

  /** Dense 2-way matrix for attributes (x, y): counts plus domains. */
  def matrix(x: String, y: String): (Vector[String], Vector[String], Array[Array[Long]]) = {
    val t  = marginal(Seq(x, y))
    val dx = t.domain(x); val dy = t.domain(y)
    val ix = dx.zipWithIndex.toMap; val iy = dy.zipWithIndex.toMap
    val m  = Array.ofDim[Long](dx.size, dy.size)
    t.counts.foreach { case (k, c) => m(ix(k(0)))(iy(k(1))) += c }
    (dx, dy, m)
  }
}

object Contingency {

  /** Build the contingency table over `attrs` with one distributed
    * aggregation. Nulls become the sentinel "∅" so they stay a category.
    */
  def fromDf(df: DataFrame, attrs: Seq[String]): ContingencyTable = {
    require(attrs.nonEmpty, "need at least one attribute")
    val grouped = df
      .groupBy(attrs.map(a => col(a).cast("string")): _*)
      .count()
      .collect()
    val m = grouped.map { r =>
      val k = Vector.tabulate(attrs.size)(i => Option(r.getString(i)).getOrElse("∅"))
      k -> r.getLong(attrs.size)
    }.toMap
    ContingencyTable(attrs.toVector, m)
  }

  /** Contingency table built directly from a 2-way count matrix. */
  def fromMatrix(x: String, y: String, dx: Seq[String], dy: Seq[String],
                 m: Array[Array[Long]]): ContingencyTable = {
    val counts = (for {
      i <- dx.indices; j <- dy.indices if m(i)(j) != 0L
    } yield Vector(dx(i), dy(j)) -> m(i)(j)).toMap
    ContingencyTable(Vector(x, y), counts)
  }
}
