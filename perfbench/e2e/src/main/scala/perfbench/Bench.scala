package perfbench

import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** The end-to-end run: times only the public entry points, with no tracing.
  * Prints the end-to-end metrics as the last line of standard output.
  */
object Bench {

  def main(args: Array[String]): Unit = sys.exit(
    try run(Opts.parse(args))
    catch { case e: Throwable => e.printStackTrace(); 1 })

  /** Set-up `times` times (session start, data generation, caching); keeps
    * the last session and reports the median time. The first set-up also
    * loads the JVM's classes, so with three the median is the slower of
    * two warm restarts.
    */
  def setUp(wl: Workload, workDir: String, times: Int): (SparkSession, Double) = {
    var spark: SparkSession = null
    val secs = (1 to times).map { _ =>
      if (spark != null) { wl.unload(); Session.stop(spark) }
      Clock.timed { spark = Session.start(workDir); wl.load(spark) }._2
    }
    Console.err.println(s"[perfbench] set-up s: ${secs.map(d => f"$d%.2f").mkString(" ")}")
    (spark, Clock.median(secs))
  }

  def run(opts: Opts): Int = {
    val wl              = Workload(opts.workload, opts.seed)
    val (spark, setupS) = setUp(wl, opts.workDir, times = 3)
    val ledger          = new Ledger
    Phase.mark(f"set-up done (median $setupS%.2f s)")
    wl.warmUp(ledger)
    Phase.mark("warm-up done")

    // closed loop for `seconds` of calls, in whole rounds; the full GC
    // after each call is outside its time
    val latencies = ArrayBuffer.empty[Double]
    val cpu       = ArrayBuffer.empty[Double]
    var answered  = 0
    var heapPeak  = 0.0
    while (latencies.sum < opts.seconds || latencies.size % wl.round != 0) {
      val c0 = Clock.processCpu
      val (n, secs) = Clock.timed(wl.call(ledger))
      latencies += secs
      answered += n
      cpu += Clock.processCpu - c0
      heapPeak = math.max(heapPeak, Heap.afterGcMb())
    }
    Phase.mark("timed loop done")
    wl.checkCalls(ledger)
    Phase.mark("output checks done")

    Console.err.println(s"[perfbench] ${latencies.size} timed calls, wall s: ${latencies.map(d => f"$d%.2f").mkString(" ")}")
    Console.err.println(s"[perfbench] process CPU s per call: ${cpu.map(d => f"$d%.2f").mkString(" ")}")
    Report.emit(ledger.failed == 0, ledger, Seq(
      Metric("query_s_p50", Clock.median(latencies.toSeq), "s"),
      Metric("queries_per_s", answered / latencies.sum, "1/s"),
      Metric("setup_s", setupS, "s"),
      Metric("heap_after_gc_peak_mb", heapPeak, "MB")))
    Session.stop(spark)
    0
  }
}
