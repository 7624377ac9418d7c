package perfbench

import java.nio.file.{Files, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}
import repro.core.{DynamicScheduler, LoadBalancer, QueueingModel}
import repro.core.CpuAssignment.Assignment
import repro.sim.{SimConfig, Workload}

/** Benchmark entry point: runs one workload for a time budget and prints one JSON
  * result as the last line of stdout. With `--trace 0` it reports the
  * end-to-end metrics from untraced runs; with `--trace 1` it runs once
  * untraced and once traced and reports the per-layer metrics.
  * perfbench/METRICS.md defines every metric.
  */
object Main {

  /** JVM start to `main`; read when `main` first touches this object. */
  val bootSec: Double = Jvm.sinceStartSec()

  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s",
    "run_s" -> "s",
    "tput_ktps" -> "ktuples/s")

  val perLayer: Seq[(String, String)] = Seq(
    "sim.engine.self_s" -> "s",
    "sim.engine.ns_per_tick" -> "ns",
    "sim.engine.ticks" -> "count",
    "sim.engine.alloc_bytes_per_tick" -> "bytes",
    "sim.engine.gc_ms" -> "ms",
    "sim.workload.advanceTo.calls" -> "count",
    "sim.workload.advanceTo.ms" -> "ms",
    "sim.workload.externalRate.calls" -> "count",
    "sim.workload.externalRate.ms" -> "ms",
    "sim.workload.shardWeights.calls" -> "count",
    "sim.workload.shardWeights.ms" -> "ms",
    "sim.result.migration_mbps" -> "MB/s",
    "sim.result.lat_mean_ms" -> "ms",
    "sim.result.lat_p99_ms" -> "ms",
    "sim.result.remote_mbps" -> "MB/s",
    "sim.protocol.moves" -> "count",
    "sim.protocol.moves_inter_node" -> "count",
    "sim.protocol.move_sync_ms" -> "ms",
    "sim.protocol.repartitions" -> "count",
    "core.DynamicScheduler.decisions" -> "count",
    "core.DynamicScheduler.ms_total" -> "ms",
    "core.DynamicScheduler.ms_max" -> "ms",
    "core.DynamicScheduler.ms_p50" -> "ms",
    "core.DynamicScheduler.ms_p90" -> "ms",
    "core.DynamicScheduler.ms_p99" -> "ms",
    "core.DynamicScheduler.share_of_run" -> "ratio",
    "core.DynamicScheduler.clipped_ratio" -> "ratio",
    "core.DynamicScheduler.none_ratio" -> "ratio",
    "core.QueueingModel.allocateCores.ms_p50" -> "ms",
    "core.QueueingModel.allocateCores.ms_p99" -> "ms",
    "core.QueueingModel.allocateCores.steps_mean" -> "count",
    "core.CpuAssignment.assign.ms_p50" -> "ms",
    "core.CpuAssignment.assign.ms_p99" -> "ms",
    "core.CpuAssignment.attempts_per_decision" -> "count",
    "core.CpuAssignment.cores_moved_mean" -> "count",
    "core.CpuAssignment.cost_mb" -> "MB",
    "core.LoadBalancer.rebalance.calls" -> "count",
    "core.LoadBalancer.rebalance.us_p50" -> "us",
    "core.LoadBalancer.rebalance.us_p99" -> "us",
    "core.LoadBalancer.rebalance.moves_per_call" -> "count",
    "core.LoadBalancer.collapse.kept_ratio" -> "ratio",
    "sim.SweepDriver.point_s_sum" -> "s",
    "sim.SweepDriver.point_s_max" -> "s",
    "sim.SweepDriver.serial_s" -> "s",
    "sim.SweepDriver.speedup" -> "ratio",
    "sim.SweepDriver.parallel_efficiency" -> "ratio",
    "trace.overhead_ratio" -> "ratio",
    "trace.spans" -> "count")

  val workloads: Seq[String] =
    Seq("sched-replay-128n", "fig6-sweep-8n")

  /** Decisions in one replay unit, and in each pass of a traced replay
    * (six samples beyond p99).
    */
  val replayDecisions = 50
  val tracedReplayDecisions = 600

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    require(workloads.contains(workload), s"unknown workload '$workload'; one of ${workloads.mkString(", ")}")
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0").toInt == 1
    val tracer = if (trace) Some(new Tracer(s"$workload-seed$seed")) else None

    val raw: (Checks, Map[String, Double]) = workload match {
      case "sched-replay-128n" =>
        Replay.run(seed, if (trace) tracedReplayDecisions else replayDecisions, seconds, tracer)
      case "fig6-sweep-8n" => Sweep.run(seed, seconds, tracer)
    }
    val (checks, values) = raw
    val wanted = if (trace) perLayer else endToEnd
    val metrics = wanted.map { case (name, unit) =>
      // Per-layer metrics of a layer the workload never calls read 0.
      Metric(name, values.getOrElse(name, if (trace) 0.0 else Double.NaN), unit)
    }
    val bad = metrics.filter(m => m.value.isNaN || m.value.isInfinite)
    bad.foreach(m => Console.err.println(s"perfbench: metric ${m.name} is ${m.value}"))
    val failed = checks.failed + (if (bad.nonEmpty) 1 else 0)

    val env = Json.obj(Jvm.environment(workload, seed, if (trace) 1 else 0))
    val result = Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> math.max(checks.attempted, 1).toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map(m =>
        m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit)))))))
    val outDir = Paths.get(System.getProperty("perfbench.out", "perfbench/.out"))
    Files.createDirectories(outDir)
    val stem = s"$workload-seed$seed-trace${if (trace) 1 else 0}"
    Files.write(outDir.resolve(s"$stem.json"),
      Json.obj(Seq("env" -> env, "result" -> result)).concat("\n").getBytes("UTF-8"))
    tracer.foreach(_.writeTo(outDir.resolve(s"$stem-spans.jsonl")))
    println(s"env $env")
    metrics.foreach(m => println(f"${m.name}%-44s ${Json.num(m.value)}%20s ${m.unit}"))
    println(result)
    System.out.flush()
    System.exit(0)
  }

  /** Run `unit` repeatedly while the next one still fits in `seconds`
    * (at least once); `unit` returns its own wall seconds.
    */
  def timedLoop(seconds: Double)(unit: Int => Double): Unit = {
    val start = System.nanoTime()
    var last = 0.0
    var i = 0
    while (i == 0 || (System.nanoTime() - start) / 1e9 + last <= seconds) {
      last = unit(i)
      i += 1
    }
  }

  /** JVM start to `main`, plus the median of `reps` runs of the workload's
    * own set-up step.
    */
  def setupSeconds(reps: Int)(step: => Unit): Double = {
    val times = (0 until reps).map { _ =>
      val t0 = System.nanoTime()
      step
      (System.nanoTime() - t0) / 1e9
    }
    bootSec + Stats.median(times)
  }

  /** The first half of a run's units warm the JVM: timings come from the
    * second half (the one unit, if there is only one).
    */
  def warm[A](units: collection.Seq[A]): Seq[A] = units.drop(units.length / 2).toSeq

  def wallSec[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  def describe(e: Throwable): String = s"${e.getClass.getSimpleName}: ${e.getMessage}"
}

object Scheduler {
  /** Per-layer figures of a sample of `DynamicScheduler.schedule` wall times. */
  def timings(ms: Seq[Double]): Seq[(String, Double)] =
    Seq("decisions" -> ms.length.toDouble, "ms_total" -> ms.sum).map { case (n, v) =>
      s"core.DynamicScheduler.$n" -> v
    } ++ (if (ms.isEmpty) Nil else
      Seq("ms_max" -> ms.max, "ms_p50" -> Stats.quantile(ms, 0.5), "ms_p90" -> Stats.quantile(ms, 0.9),
        "ms_p99" -> Stats.quantile(ms, 0.99)).map { case (n, v) => s"core.DynamicScheduler.$n" -> v })
}

/** The traced sweep's balancer probe: `LoadBalancer.rebalance` on each
  * post-shuffle shard-load vector of every calculator executor of the
  * Elasticutor ω=16 point, chaining each executor's assignment from one
  * call to the next.
  */
object Balancer {
  def probe(cfg: SimConfig, seed: Long, tasks: IndexedSeq[Int], tr: Tracer): Seq[(String, Double)] = {
    val wl = Scenarios.fig6Workload(16, cfg.cluster.numNodes, seed)
    val y = cfg.executorsOf("calculator")
    val z = cfg.shardsPerExecutor
    val rate = wl.externalRate("calculator", 0.0)
    val cpu = wl.calculator.cpuSecPerTuple
    val numTasks = IndexedSeq.tabulate(y)(e => math.max(1, if (e < tasks.length) tasks(e) else 1))
    val assignment = Array.tabulate(y)(e => IndexedSeq.tabulate(z)(_ % numTasks(e)))
    val micros = ArrayBuffer.empty[Double]
    var moves = 0L
    var kept = 0L
    // t = 0 is the deploy-time balance; then every shuffle instant.
    val instants = 0.0 +: Iterator.iterate(60.0 / 16)(_ + 60.0 / 16).takeWhile(_ < cfg.durationSec).toSeq
    tr.span("probe.LoadBalancer") { parent =>
      for (t <- instants) {
        wl.advanceTo(t)
        val w = wl.shardWeights("calculator", y, z)
        for (e <- 0 until y) {
          val loads = IndexedSeq.tabulate(z)(s => rate * w(e * z + s) * cpu)
          val t0 = System.nanoTime()
          val reb = tr.span("core.LoadBalancer.rebalance", parent)(_ =>
            LoadBalancer.rebalance(loads, assignment(e), numTasks(e), cfg.theta))
          micros += (System.nanoTime() - t0) / 1e3
          assignment(e) = reb.assignment
          moves += reb.moves.length
          kept += LoadBalancer.collapse(reb.moves).length
        }
      }
    }
    Seq(
      "core.LoadBalancer.rebalance.calls" -> micros.length.toDouble,
      "core.LoadBalancer.rebalance.us_p50" -> Stats.quantile(micros.toSeq, 0.5),
      "core.LoadBalancer.rebalance.us_p99" -> Stats.quantile(micros.toSeq, 0.99),
      "core.LoadBalancer.rebalance.moves_per_call" -> moves.toDouble / micros.length,
      "core.LoadBalancer.collapse.kept_ratio" -> (if (moves == 0) 1.0 else kept.toDouble / moves))
  }
}

/** `sched-replay-128n`: a closed loop of `DynamicScheduler.schedule` calls on
  * the SSE executor population of a 128-node cluster. Decision d sees the
  * SSE regime at t = 10·d s; its assignment becomes the next X̃ (a decision
  * without one leaves X̃ unchanged). One timed unit is one loop of
  * [[Main.replayDecisions]] decisions.
  */
object Replay {
  import Main._

  val nodes = 128

  /** Everything one pass measured; `signature` identifies its decisions.
    * `loopSec` is the wall time of building each decision's inputs and
    * making it, without the benchmark's own checks and extra timings.
    */
  final case class Pass(loopSec: Double, schedMs: IndexedSeq[Double], allocMs: IndexedSeq[Double],
                        signature: IndexedSeq[(Int, Int, Double)], none: Int, clipped: Int,
                        steps: Double, attempts: Double, coresMoved: Double, costBytes: Double,
                        servedEntry: Double, violations: IndexedSeq[(Int, String)],
                        calls: WorkloadCalls)

  def pass(seed: Long, decisions: Int, tracer: Option[Tracer], parent: Int, nodes: Int = nodes): Pass = {
    val timed = tracer.map(_ => (w: Workload) => new TimedWorkload(w))
    val pop = new SsePopulation(nodes, Scenarios.table3Load, seed, timed.getOrElse(identity[Workload] _))
    val cfg = pop.config
    val totalCores = pop.capacity.sum
    val schedMs = ArrayBuffer.empty[Double]
    val allocMs = ArrayBuffer.empty[Double]
    val sig = ArrayBuffer.empty[(Int, Int, Double)]
    val bad = ArrayBuffer.empty[(Int, String)]
    var none, clipped = 0
    var steps, attempts, moved, cost, served = 0.0
    var prev: Assignment = null
    var loopNs = 0L
    for (d <- 0 until decisions) {
      val t = System.nanoTime()
      val (loads, infos, lambda) = pop.at(10.0 * d)
      if (prev == null) prev = pop.initial(infos)
      val before = prev
      val t0 = System.nanoTime()
      val dec = tracer match {
        case Some(tr) => tr.span("core.DynamicScheduler.schedule", parent)(_ =>
          DynamicScheduler.schedule(loads, infos, before, pop.capacity, cfg.latencyTargetSec, cfg.phi0))
        case None => DynamicScheduler.schedule(loads, infos, before, pop.capacity, cfg.latencyTargetSec, cfg.phi0)
      }
      val t1 = System.nanoTime()
      loopNs += t1 - t
      schedMs += (t1 - t0) / 1e6
      tracer.foreach { tr =>
        val t1 = System.nanoTime()
        tr.span("core.QueueingModel.allocateCores", parent)(_ =>
          QueueingModel.allocateCores(loads, cfg.latencyTargetSec, totalCores))
        allocMs += (System.nanoTime() - t1) / 1e6
      }
      val demand = dec.allocation.cores.sum
      if (demand > totalCores) clipped += 1
      val minima = loads.map(_.minCores).sum
      if (minima <= totalCores) steps += demand - minima
      attempts += 1 + math.round(math.log(dec.phiUsed / cfg.phi0) / math.log(2))
      sig += ((dec.allocation.cores.hashCode, dec.assignment.map(_.cores.hashCode).getOrElse(0), dec.phiUsed))
      dec.assignment match {
        case None => none += 1
        case Some(a) =>
          for (i <- 0 until nodes if a.usedOn(i) > pop.capacity(i))
            bad += d -> s"decision $d: node $i holds ${a.usedOn(i)} > ${pop.capacity(i)} cores"
          for (j <- infos.indices if a.totalOf(j) < 1) bad += d -> s"decision $d: executor $j has no core"
          cost += a.migrationCostFrom(before, infos)
          for (i <- 0 until nodes; j <- infos.indices)
            moved += math.max(0, a.cores(i)(j) - before.cores(i)(j))
          prev = a
      }
      // Entry-operator rate the installed cores can serve: min(λ, k·μ).
      for (j <- infos.indices if pop.isEntry(j))
        served += math.min(lambda(j), prev.totalOf(j) * loads(j).mu)
    }
    Pass(loopNs / 1e9, schedMs.toIndexedSeq, allocMs.toIndexedSeq, sig.toIndexedSeq, none, clipped,
      steps / decisions, attempts / decisions, moved / decisions, cost / decisions,
      served / decisions, bad.toIndexedSeq,
      pop.workload match { case w: TimedWorkload => WorkloadCalls.of(w); case _ => WorkloadCalls() })
  }

  def run(seed: Long, decisions: Int, seconds: Double, tracer: Option[Tracer]): (Checks, Map[String, Double]) = {
    val checks = new Checks
    // JVM warm-up, timed by nothing: the scheduler's code reaches compiled
    // speed far sooner on a half-size cluster's faster decisions. It runs
    // before anything else at full size: building the 128-node population
    // first left the loop ~1.8× slower for the rest of the JVM's life.
    pass(seed, 100, None, 0, nodes / 2)
    val setup = setupSeconds(3) {
      val pop = new SsePopulation(nodes, Scenarios.table3Load, seed, identity)
      pop.initial(pop.at(0.0)._2)
    }
    var reference: Option[Pass] = None

    /** One checked pass; each decision is an operation. A decision fails
      * its checks, or differs from the same decision of the first pass.
      */
    def checked(label: String, tr: Option[Tracer], parent: Int): Option[Pass] =
      Try(pass(seed, decisions, tr, parent)) match {
        case Success(p) =>
          val differs = reference.fold(Seq.empty[(Int, String)]) { ref =>
            p.signature.indices.filter(d => ref.signature(d) != p.signature(d))
              .map(d => d -> s"decision $d differs from the first pass")
          }
          val bad = p.violations ++ differs
          checks.batch(label, decisions, bad.map(_._1).toSet, bad.map(_._2))
          if (reference.isEmpty) reference = Some(p)
          if (bad.isEmpty) Some(p) else None
        case Failure(e) =>
          checks.batch(label, decisions, (0 until decisions).toSet, Seq(describe(e)))
          None
      }

    tracer match {
      case None =>
        val walls = ArrayBuffer.empty[Double]
        timedLoop(seconds) { i =>
          val (p, s) = wallSec(checked(s"decision loop $i", None, 0))
          p.foreach(walls += _.loopSec)
          s
        }
        (checks, Map(
          "setup_s" -> setup,
          "run_s" -> (if (walls.isEmpty) Double.NaN else Stats.median(warm(walls))),
          "tput_ktps" -> reference.fold(Double.NaN)(_.servedEntry / 1e3)))

      case Some(tr) =>
        // A warm-up pass, then the untraced pass the traced one is compared to.
        tr.span("unit.warmup")(u => checked("warm-up decision loop", None, u))
        val plain = tr.span("unit.untraced")(u => checked("untraced decision loop", None, u))
        val traced = tr.span("unit.traced")(u => checked("traced decision loop", Some(tr), u))
        val values = Map.newBuilder[String, Double]
        for (p <- traced) {
          val assignMs = p.schedMs.zip(p.allocMs).map { case (s, a) => math.max(0.0, s - a) }
          val n = p.schedMs.length.toDouble
          values ++= Seq(
            "core.DynamicScheduler.share_of_run" -> p.schedMs.sum / 1e3 / p.loopSec,
            "core.DynamicScheduler.clipped_ratio" -> p.clipped / n,
            "core.DynamicScheduler.none_ratio" -> p.none / n,
            "core.QueueingModel.allocateCores.ms_p50" -> Stats.quantile(p.allocMs, 0.5),
            "core.QueueingModel.allocateCores.ms_p99" -> Stats.quantile(p.allocMs, 0.99),
            "core.QueueingModel.allocateCores.steps_mean" -> p.steps,
            "core.CpuAssignment.assign.ms_p50" -> Stats.quantile(assignMs, 0.5),
            "core.CpuAssignment.assign.ms_p99" -> Stats.quantile(assignMs, 0.99),
            "core.CpuAssignment.attempts_per_decision" -> p.attempts,
            "core.CpuAssignment.cores_moved_mean" -> p.coresMoved,
            "core.CpuAssignment.cost_mb" -> p.costBytes / 1e6)
          values ++= Scheduler.timings(p.schedMs) ++ p.calls.metrics
          for (q <- plain) values += "trace.overhead_ratio" -> (p.loopSec / q.loopSec - 1)
        }
        values += "trace.spans" -> tr.count.toDouble
        (checks, values.result())
    }
  }
}
