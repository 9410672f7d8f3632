package perfbench

import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import repro.core.{ContingencyTable, MaterializedStats, StatsProvider}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Spark work per span, from a listener. A job belongs to the span named by
  * the local property [[Tracer]] sets on the driver thread around a phase,
  * or to [[SparkCounters.Outside]] when no span is open.
  */
final class SparkCounters extends SparkListener {
  final class Acc {
    var jobs, stages, tasks, shuffleBytes, taskMs = 0L
    val jobIntervals = ArrayBuffer.empty[(Long, Long)] // epoch ms
  }

  private val bySpan    = mutable.Map.empty[String, Acc]
  private val jobSpan   = mutable.Map.empty[Int, (String, Long)]
  private val stageSpan = mutable.Map.empty[Int, String]

  private def acc(span: String) = bySpan.getOrElseUpdate(span, new Acc)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .getOrElse(SparkCounters.Outside)
    jobSpan(e.jobId) = (span, e.time)
    acc(span).jobs += 1
    e.stageIds.foreach(stageSpan.getOrElseUpdate(_, span))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobSpan.remove(e.jobId).foreach { case (span, start) => acc(span).jobIntervals += ((start, e.time)) }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).foreach(acc(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { span =>
      val a = acc(span)
      a.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        a.shuffleBytes += m.shuffleReadMetrics.totalBytesRead + m.shuffleWriteMetrics.bytesWritten
        a.taskMs += m.executorRunTime
      }
    }
  }

  def reset(): Unit = synchronized { bySpan.clear(); jobSpan.clear() }

  def span(name: String): Acc = synchronized(bySpan.getOrElse(name, new Acc))

  /** Every span's work except the untraced call's, jobs outside spans included. */
  def traced: Seq[Acc] = synchronized(bySpan.collect { case (k, a) if k != Tracer.Untraced => a }.toSeq)
}

object SparkCounters {
  /** Where jobs started outside any span are counted. */
  val Outside = "(outside)"

  /** Blocks until the listener bus has delivered every posted event. The bus
    * is Spark-internal, hence the reflection.
    */
  def drain(sc: SparkContext): Unit = {
    val bus = sc.getClass.getMethod("listenerBus").invoke(sc)
    bus.getClass.getMethod("waitUntilEmpty").invoke(bus)
  }

  /** Length of the union of [start, end] intervals, in seconds. */
  def unionSeconds(intervals: Seq[(Long, Long)]): Double = {
    var total = 0L; var reach = Long.MinValue
    for ((s, e) <- intervals.sortBy(_._1)) {
      val from = math.max(s, reach)
      if (e > from) total += e - from
      reach = math.max(reach, e)
    }
    total / 1e3
  }
}

/** Wall time per named phase of one traced call. Phases do not nest. */
final class Tracer(spark: SparkSession) {
  val seconds = mutable.LinkedHashMap.empty[String, Double].withDefaultValue(0.0)
  val entries = mutable.Map.empty[String, Int].withDefaultValue(0)

  def span[A](name: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.setLocalProperty(Tracer.SpanKey, name)
    val t0 = Clock.now
    try body
    finally {
      seconds(name) += Clock.now - t0
      entries(name) += 1
      sc.setLocalProperty(Tracer.SpanKey, null)
    }
  }

  def total: Double = seconds.values.sum
}

object Tracer {
  val SpanKey = "perfbench.span"
  /** The span of the untraced entry-point call of a pair. */
  val Untraced = "untraced"
}

/** Counts and times the driver-side statistics calls made on a
  * [[MaterializedStats]]: contingency tables (marginals of the summary)
  * and entropies. Cells folded counts the summary's cells once per
  * marginal computed, by `contingency` or by an entropy cache miss.
  */
final class CountingStats(inner: MaterializedStats) extends StatsProvider {
  def attributes: Seq[String] = inner.attributes
  def n: Long                 = inner.n
  val cells: Long             = inner.table.distinctCount.toLong

  var contingencyCalls, contingencyNanos, entropyCalls, entropyNanos, cellsFolded = 0L
  val distinctSets = mutable.Set.empty[Set[String]]

  def nanos: Long = contingencyNanos + entropyNanos

  def contingency(attrs: Seq[String]): ContingencyTable = {
    contingencyCalls += 1
    distinctSets += attrs.toSet
    cellsFolded += cells
    val t0 = System.nanoTime()
    try inner.contingency(attrs) finally contingencyNanos += System.nanoTime() - t0
  }

  override def entropyEvaluations: Long = inner.entropyEvaluations

  def entropy(attrs: Seq[String]): Double = {
    entropyCalls += 1
    val before = inner.entropyEvaluations
    val t0     = System.nanoTime()
    try inner.entropy(attrs)
    finally {
      entropyNanos += System.nanoTime() - t0
      if (inner.entropyEvaluations > before) cellsFolded += cells
    }
  }
}
