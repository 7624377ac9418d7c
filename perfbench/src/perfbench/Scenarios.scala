package perfbench

import repro.core.CpuAssignment.{Assignment, ExecutorInfo}
import repro.core.QueueingModel.ExecutorLoad
import repro.experiments.Experiments
import repro.sim.{Paradigm, SimConfig, SimResult, Workload}
import repro.sse.SSEWorkload
import repro.workload.MicroBenchWorkload

/** The benchmark's configurations. They mirror `Experiments` (whose SSE
  * config is private and whose Fig. 6 point has no seed) but take the
  * workload seed; `SelfCheck` proves they agree at the default seeds.
  */
object Scenarios {
  val sseDefaultSeed = 2019L
  val microDefaultSeed = 42L

  /** Table 3 runs the SSE application at 1.15× pipeline capacity. */
  val table3Load = 1.15
  val table3DurationSec = 30.0
  val fig6DurationSec = 45.0
  val fig6Omegas: Seq[Double] = Seq(0.0, 2.0, 8.0, 16.0)

  /** Same as `Experiments.sseConfig`. */
  def sseConfig(nodes: Int, paradigm: Paradigm, durationSec: Double): SimConfig = {
    val (others, overrides) = Experiments.sseExecutors(nodes)
    SimConfig(Experiments.paperCluster(nodes), paradigm,
      executorsPerOp = others,
      shardsPerExecutor = 64,
      executorsPerOpOverride = overrides,
      durationSec = durationSec, warmupSec = 5.0)
  }

  /** Same as `Experiments.sseWorkload`, with the seed exposed. */
  def sseWorkload(nodes: Int, loadFactor: Double, seed: Long): SSEWorkload = {
    val capacity = nodes * 8 / Experiments.ssePipelineCostSec
    new SSEWorkload(offeredRate = capacity * loadFactor, spoutExecutors = 32, seed = seed)
  }

  /** Same config as `Experiments.fig6Point`. */
  def fig6Config(approach: String, nodes: Int, durationSec: Double): SimConfig = {
    val paradigm: Paradigm = approach match {
      case "static" => Paradigm.Static
      case "RC" => Paradigm.ResourceCentric()
      case "Elasticutor" => Paradigm.ExecutorCentric()
      case other => throw new IllegalArgumentException(s"unknown approach $other")
    }
    SimConfig(Experiments.paperCluster(nodes), paradigm,
      executorsPerOp = nodes, shardsPerExecutor = 8192 / nodes,
      executorsPerOpOverride = Map("sink" -> 2),
      durationSec = durationSec, warmupSec = 5.0)
  }

  /** Same workload as `Experiments.fig6Point`, with the seed exposed. */
  def fig6Workload(omega: Double, nodes: Int, seed: Long): MicroBenchWorkload = {
    val offered = Experiments.paperCluster(nodes).totalCores / 1e-3 * 0.72
    new MicroBenchWorkload(offered, omega, zipfSkew = 0.65, seed = seed)
  }
}

/** The behaviour of one simulation: every value is a deterministic function
  * of the config and the workload seed, so two runs of the same program must
  * agree on all of it exactly.
  */
final case class SimBehaviour(throughput: Double,
                              meanLatencySec: Double,
                              p99LatencySec: Double,
                              migrationMBps: Double,
                              remoteMBps: Double,
                              moves: Int,
                              movesInterNode: Int,
                              moveSyncMs: Double,
                              repartitions: Int,
                              decisions: Int,
                              perSecond: IndexedSeq[repro.sim.SecondMetric])

object SimBehaviour {
  def of(r: SimResult): SimBehaviour = SimBehaviour(
    r.throughput, r.meanLatencySec, r.p99LatencySec,
    r.migrationRateBytesPerSec / 1e6, r.remoteRateBytesPerSec / 1e6,
    r.moves.length, r.moves.count(_.interNode), Stats.mean(r.moves.map(_.syncSec * 1e3)),
    r.repartitions.length, r.schedulerMillis.length, r.perSecond)

  /** Output checks of one simulation: every metric finite and ≥ 0, and by
    * the end of every second the entry operator has completed no more
    * tuples than were offered to it so far. (A single second may complete
    * more than it was offered while a backlog drains.)
    */
  def violations(r: SimResult): Seq[String] = {
    val out = Seq.newBuilder[String]
    def nonNeg(what: String, v: Double): Unit =
      if (v.isNaN || v.isInfinite || v < 0) out += s"$what = $v"
    nonNeg("throughput", r.throughput)
    nonNeg("meanLatencySec", r.meanLatencySec)
    nonNeg("p99LatencySec", r.p99LatencySec)
    nonNeg("migrationRate", r.migrationRateBytesPerSec)
    nonNeg("remoteRate", r.remoteRateBytesPerSec)
    r.schedulerMillis.foreach(nonNeg("schedulerMillis", _))
    r.moves.foreach(m => { nonNeg("move.syncSec", m.syncSec); nonNeg("move.migrateSec", m.migrateSec) })
    r.repartitions.foreach(p => { nonNeg("repartition.migrateSec", p.migrateSec); nonNeg("repartition.bytes", p.bytes) })
    var done = 0.0
    var offered = 0.0
    r.perSecond.foreach { s =>
      Seq(s.throughput, s.meanLatencySec, s.migrationBytes, s.remoteBytes, s.backpressured, s.offered)
        .foreach(nonNeg(s"second ${s.sec}", _))
      done += s.throughput
      offered += s.offered
      if (done > offered * (1 + 1e-9) + 1e-6)
        out += s"second ${s.sec}: completed $done > offered $offered so far"
    }
    out.result()
  }
}

/** The SSE executor population of a cluster as the scheduler sees it at
  * warm start. Loads and infos are built from the workload's public rates
  * and shard weights the way `StreamSimulator.initialProvision` builds them:
  * λ inflated by θ, each executor's share the sum of its shards' weights.
  */
final class SsePopulation(val nodes: Int, loadFactor: Double, seed: Long, wrap: Workload => Workload) {
  val config: SimConfig = Scenarios.sseConfig(nodes, Paradigm.ExecutorCentric(), Scenarios.table3DurationSec)
  val workload: Workload = wrap(Scenarios.sseWorkload(nodes, loadFactor, seed))
  private val ops = workload.operators
  private val opIdx = ops.map(_.name).zipWithIndex.toMap
  private val z = config.shardsPerExecutor
  /** (operator index, executor index) of each executor, in layout order. */
  val executors: IndexedSeq[(Int, Int)] =
    for (j <- ops.indices; e <- 0 until config.executorsOf(ops(j).name)) yield (j, e)
  /** Executors are placed round-robin over nodes in layout order. */
  val localNode: IndexedSeq[Int] = executors.indices.map(_ % nodes)
  val capacity: IndexedSeq[Int] = IndexedSeq.fill(nodes)(config.cluster.coresPerNode)
  val isEntry: IndexedSeq[Boolean] = executors.map(_._1 == opIdx(workload.throughputOp))

  /** Scheduler inputs at `timeSec`, plus each executor's un-inflated λ. */
  def at(timeSec: Double): (IndexedSeq[ExecutorLoad], IndexedSeq[ExecutorInfo], IndexedSeq[Double]) = {
    workload.advanceTo(timeSec)
    val rates = new Array[Double](ops.length)
    for (j <- ops.indices) {
      rates(j) += workload.externalRate(ops(j).name, timeSec)
      for ((d, sel) <- ops(j).downstream) rates(opIdx(d)) += rates(j) * sel
    }
    val shares = ops.indices.map { j =>
      val y = config.executorsOf(ops(j).name)
      val w = workload.shardWeights(ops(j).name, y, z)
      Array.tabulate(y)(e => w.slice(e * z, (e + 1) * z).sum)
    }
    val lambda = executors.map { case (j, e) => rates(j) * shares(j)(e) }
    val loads = executors.indices.map { x =>
      ExecutorLoad(lambda(x) * config.theta, 1.0 / ops(executors(x)._1).cpuSecPerTuple)
    }
    val infos = executors.indices.map { x =>
      val op = ops(executors(x)._1)
      ExecutorInfo(localNode(x), z * op.statePerShardBytes, lambda(x) * (op.tupleBytes + op.outBytes))
    }
    (loads, infos, lambda)
  }

  /** Deployment default X̃₀: one core per executor on its local node. */
  def initial(infos: IndexedSeq[ExecutorInfo]): Assignment =
    Assignment.oneCoreLocal(infos, nodes, config.cluster.coresPerNode)
}
