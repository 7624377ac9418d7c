package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import repro.sim.{OperatorSpec, Workload}

/** Order statistics over timing samples (linear interpolation between the
  * two nearest ranks, as numpy's default).
  */
object Stats {
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s = xs.toArray.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.ceil(pos).toInt
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
}

/** One reported number. */
final case class Metric(name: String, value: Double, unit: String)

/** Counts operations attempted and failed (an exception or a failed output
  * check); every violation is printed to stderr so a failed run explains
  * itself.
  */
final class Checks {
  var attempted = 0
  var failed = 0
  /** Record `n` operations of which those in `failedOps` failed. */
  def batch(what: String, n: Int, failedOps: Set[Int], messages: Seq[String]): Unit = {
    attempted += n
    failed += failedOps.size
    messages.take(5).foreach(m => Console.err.println(s"perfbench: check failed in $what: $m"))
  }
}

/** Minimal JSON rendering for flat records. */
object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null"
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.lang.Double.toString(v)
  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** A closed interval of wall time around one call into a layer. */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, runId: String)

/** In-memory span recorder for the traced run; written out once at the end.
  * Thread-safe so Spark task threads can record sweep points.
  */
final class Tracer(val runId: String) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var nextId = 1

  def span[A](name: String, parent: Int = 0)(body: Int => A): A = {
    val id = synchronized { val i = nextId; nextId += 1; i }
    val t0 = System.nanoTime()
    try body(id)
    finally {
      val t1 = System.nanoTime()
      synchronized { spans += Span(id, parent, name, t0, t1, runId) }
    }
  }

  /** Record a span timed elsewhere (a sweep point on a Spark thread). */
  def record(name: String, parent: Int, startNs: Long, endNs: Long): Unit = synchronized {
    spans += Span(nextId, parent, name, startNs, endNs, runId)
    nextId += 1
  }

  def count: Int = synchronized(spans.length)

  def writeTo(path: java.nio.file.Path): Unit = {
    val lines = synchronized(spans.sortBy(_.startNs).toList).map { s =>
      Json.obj(Seq("run" -> Json.str(s.runId), "id" -> s.id.toString, "parent" -> s.parent.toString,
        "name" -> Json.str(s.name), "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString))
    }
    java.nio.file.Files.write(path, (lines.mkString("\n") + "\n").getBytes("UTF-8"))
  }
}

/** Delegating [[Workload]] that counts and times every call into the
  * workload layer. It changes nothing the simulator sees.
  */
final class TimedWorkload(inner: Workload) extends Workload {
  var advanceCalls = 0L
  var advanceNs = 0L
  var rateCalls = 0L
  var rateNs = 0L
  var weightCalls = 0L
  var weightNs = 0L

  override def operators: IndexedSeq[OperatorSpec] = inner.operators
  override def throughputOp: String = inner.throughputOp
  override def upstreamExecutorCount: Int = inner.upstreamExecutorCount

  override def externalRate(op: String, timeSec: Double): Double = {
    val t0 = System.nanoTime()
    val r = inner.externalRate(op, timeSec)
    rateNs += System.nanoTime() - t0
    rateCalls += 1
    r
  }

  override def advanceTo(timeSec: Double): Boolean = {
    val t0 = System.nanoTime()
    val r = inner.advanceTo(timeSec)
    advanceNs += System.nanoTime() - t0
    advanceCalls += 1
    r
  }

  override def shardWeights(op: String, numExecutors: Int, shardsPerExecutor: Int): Array[Double] = {
    val t0 = System.nanoTime()
    val r = inner.shardWeights(op, numExecutors, shardsPerExecutor)
    weightNs += System.nanoTime() - t0
    weightCalls += 1
    r
  }
}

/** Workload-call totals, summed over any number of [[TimedWorkload]]s. */
final case class WorkloadCalls(advanceCalls: Long = 0, advanceNs: Long = 0,
                               rateCalls: Long = 0, rateNs: Long = 0,
                               weightCalls: Long = 0, weightNs: Long = 0) {
  def +(o: WorkloadCalls): WorkloadCalls = WorkloadCalls(
    advanceCalls + o.advanceCalls, advanceNs + o.advanceNs, rateCalls + o.rateCalls,
    rateNs + o.rateNs, weightCalls + o.weightCalls, weightNs + o.weightNs)
  def totalNs: Long = advanceNs + rateNs + weightNs
  def metrics: Seq[(String, Double)] = Seq(
    "sim.workload.advanceTo.calls" -> advanceCalls.toDouble,
    "sim.workload.advanceTo.ms" -> advanceNs / 1e6,
    "sim.workload.externalRate.calls" -> rateCalls.toDouble,
    "sim.workload.externalRate.ms" -> rateNs / 1e6,
    "sim.workload.shardWeights.calls" -> weightCalls.toDouble,
    "sim.workload.shardWeights.ms" -> weightNs / 1e6)
}
object WorkloadCalls {
  def of(w: TimedWorkload): WorkloadCalls = WorkloadCalls(
    w.advanceCalls, w.advanceNs, w.rateCalls, w.rateNs, w.weightCalls, w.weightNs)
}

/** JVM counters the traced run reads around a call. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes the calling thread has allocated so far. */
  def threadAllocatedBytes(): Long = threads.getThreadAllocatedBytes(Thread.currentThread().getId)

  /** Accumulated collection time of all collectors, ms. */
  def gcMillis(): Long = {
    var ms = 0L
    ManagementFactory.getGarbageCollectorMXBeans.forEach(b => ms += math.max(0L, b.getCollectionTime))
    ms
  }

  /** Milliseconds from JVM start to now. */
  def sinceStartSec(): Double =
    (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3

  def environment(workload: String, seed: Long, trace: Int): Seq[(String, String)] = {
    val rt = ManagementFactory.getRuntimeMXBean
    Seq(
      "workload" -> Json.str(workload),
      "seed" -> seed.toString,
      "trace" -> trace.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "jvm_flags" -> Json.str(rt.getInputArguments.toArray.filterNot(_.toString.startsWith("--add-opens")).mkString(" ")),
      "max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
      "git_commit" -> Json.str(System.getProperty("perfbench.commit", "none")),
      "source_hash" -> Json.str(System.getProperty("perfbench.sources", "none")))
  }
}
