package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.mutable.ArrayBuffer

/** `--workload <name> --seed <n> --seconds <s> --work-dir <dir>` */
final case class Opts(workload: String, seed: Long, seconds: Double, workDir: String)

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toDouble, need("work-dir"))
  }
}

object Clock {
  def now: Double = System.nanoTime() / 1e9

  /** CPU seconds used by every thread of this JVM so far. */
  def processCpu: Double = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9

  def timed[A](body: => A): (A, Double) = {
    val t0 = now; val a = body; (a, now - t0)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val n = s.size
    require(n > 0, "median of nothing")
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** Progress lines on stderr, with seconds since the JVM started. */
object Phase {
  private val start = ManagementFactory.getRuntimeMXBean.getStartTime

  def mark(what: String): Unit =
    Console.err.println(f"[perfbench] ${(System.currentTimeMillis() - start) / 1e3}%7.2f s  $what")
}

/** One Spark session with the settings of the repository's tests and jobs:
  * 64 shuffle partitions, broadcast joins off. It runs `local[N]` with N
  * half the processors (at most 4), which leaves the rest to the driver
  * thread, the JIT compiler and the garbage collector.
  */
object Session {
  val cores: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors / 2))

  def start(workDir: String): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/spark-warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def stop(s: SparkSession): Unit = {
    s.stop()
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
  }
}

/** Driver heap in use after a full garbage collection. */
object Heap {
  def afterGcMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** Entry-point calls attempted and failed (threw or failed an output check). */
final class Ledger {
  var attempted = 0L
  val failures  = ArrayBuffer.empty[String]
  private var failedCalls = Set.empty[Long]

  /** Registers one call; returns its id for later checks. */
  def attempt(): Long = { attempted += 1; attempted }

  /** Runs an output check on call `id`; a failure marks the call failed. */
  def check(id: Long, what: String)(body: => Unit): Unit =
    try body catch {
      case e: Throwable =>
        failedCalls += id
        failures += s"call $id: $what: ${e.getClass.getSimpleName}: ${e.getMessage}"
    }

  def failed: Long = failedCalls.size.toLong
}

final case class Metric(name: String, value: Double, unit: String)

object Report {
  private def num(d: Double): String =
    if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)

  /** The result line: the last line of standard output. */
  def json(correct: Boolean, ledger: Ledger, metrics: Seq[Metric]): String = {
    val ms = metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
    s"""{"correct": $correct, "attempted": ${ledger.attempted}, "failed": ${ledger.failed}, """ +
      s""""metrics": {${ms.mkString(", ")}}}"""
  }

  def emit(correct: Boolean, ledger: Ledger, metrics: Seq[Metric]): Unit = {
    ledger.failures.foreach(f => Console.err.println(s"[perfbench] FAILED $f"))
    metrics.foreach(m => Console.err.println(f"[perfbench] ${m.name}%-34s ${m.value}%14.6f ${m.unit}"))
    Console.out.println(json(correct, ledger, metrics))
    Console.out.flush()
  }
}
