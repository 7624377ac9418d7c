package repro.sim

import scala.collection.mutable
import repro.core.{CpuAssignment, DynamicScheduler, LoadBalancer, QueueingModel}

/** Which execution paradigm (§2.2) the simulated system runs. */
sealed trait Paradigm
object Paradigm {
  /** Storm default: one core per executor, static key partition, no elasticity. */
  case object Static extends Paradigm

  /** Resource-centric: single-core executors; elasticity via operator-level
    * key repartitioning with global synchronization (pause all upstream,
    * drain in-flight, migrate state, update upstream routing tables).
    */
  final case class ResourceCentric() extends Paradigm

  /** Executor-centric (Elasticutor): y elastic executors per operator, each
    * owning a static key subspace of z shards; cores assigned dynamically by
    * the model-based scheduler; intra-executor load balancing.
    * `naive` disables migration-cost/locality optimisation (naive-EC, §5.4).
    */
  final case class ExecutorCentric(naive: Boolean = false) extends Paradigm
}

/** Full configuration of one simulation run.
  *
  * Defaults mirror §5: 32 executors/operator × 256 shards/executor = 8192
  * shards per operator (the same repartitioning granularity is used for the
  * static/RC paradigms).
  */
final case class SimConfig(cluster: ClusterSpec,
                           paradigm: Paradigm,
                           executorsPerOp: Int = 32,
                           shardsPerExecutor: Int = 256,
                           executorsPerOpOverride: Map[String, Int] = Map.empty,
                           tickSec: Double = 1e-3,
                           durationSec: Double = 60.0,
                           warmupSec: Double = 5.0) {
  require(tickSec > 0 && durationSec > tickSec, "bad tick/duration")
  require(warmupSec >= 0 && warmupSec < durationSec, "warmup must fit in duration")
  // The engine closes a per-second row only at whole seconds, and the totals
  // divide by duration − warm-up: a partial second would be simulated but
  // never counted.
  require(durationSec.isWhole, s"durationSec must be a whole number of seconds: $durationSec")
  require(warmupSec.isWhole, s"warmupSec must be a whole number of seconds: $warmupSec")
  def executorsOf(op: String): Int = executorsPerOpOverride.getOrElse(op, executorsPerOp)
  /** Model constants: latency target T_max, θ and φ₀ (§3–4). */
  def latencyTargetSec: Double = 0.05
  def theta: Double = LoadBalancer.Theta
  def phi0: Double = CpuAssignment.Phi0
}

/** One second of aggregated simulation metrics. */
final case class SecondMetric(sec: Int,
                              throughput: Double,
                              meanLatencySec: Double,
                              migrationBytes: Double,
                              remoteBytes: Double,
                              backpressured: Double,
                              offered: Double)

/** Everything a bench needs from one run. Post-warmup aggregates plus the
  * full per-second series and per-operation protocol logs.
  *
  * @param warmupSec           seconds whose rows the post-warm-up totals skip
  * @param deferredAssignments scheduler decisions left unapplied because an
  *                            executor they change still had shard moves or
  *                            retiring tasks in flight (whole run, warm-up
  *                            included)
  */
final class SimResult(val perSecond: IndexedSeq[SecondMetric],
                      val moves: IndexedSeq[MoveRecord],
                      val repartitions: IndexedSeq[RepartitionRecord],
                      val schedulerMillis: IndexedSeq[Double],
                      val entryStats: CompletionStats,
                      val allOpsLatencySum: Double,
                      warmupSec: Double,
                      val measuredSec: Double,
                      val deferredAssignments: Int) {
  /** Post-warm-up migration and remote bytes: sums of the rows past warm-up. */
  val totalMigrationBytes: Double = perSecond.filter(_.sec > warmupSec).map(_.migrationBytes).sum
  val totalRemoteBytes: Double = perSecond.filter(_.sec > warmupSec).map(_.remoteBytes).sum
  /** Mean post-warmup throughput, tuples/s of the entry operator. */
  def throughput: Double = entryStats.tuples / measuredSec
  /** End-to-end mean latency per Eq. (1): Σ_ops λ_j E[T_j] / λ_0. */
  def meanLatencySec: Double =
    if (entryStats.tuples <= 0) 0.0 else allOpsLatencySum / entryStats.tuples
  /** 99th-percentile sojourn latency at the entry operator. */
  def p99LatencySec: Double = entryStats.latencyQuantile(0.99)
  def migrationRateBytesPerSec: Double = totalMigrationBytes / measuredSec
  def remoteRateBytesPerSec: Double = totalRemoteBytes / measuredSec
}

/** Discrete-time fluid simulator of a stream-processing cluster running one
  * of the three paradigms over a dynamic keyed workload. See DESIGN.md §6
  * for the fidelity argument.
  *
  * The engine owns arrivals, service and the per-second metrics. Everything
  * paradigm-specific — layout, warm start, protocol state machines and
  * periodic control — lives in one [[Controller]], chosen once from
  * `config.paradigm`.
  */
final class StreamSimulator(config: SimConfig, workload: Workload) {
  private val cluster = config.cluster
  private val ops = workload.operators
  private val opIdx: Map[String, Int] = ops.map(_.name).zipWithIndex.toMap
  require(opIdx.contains(workload.throughputOp), s"unknown throughput op ${workload.throughputOp}")
  private val entryOp = opIdx(workload.throughputOp)
  private val numNodes = cluster.numNodes
  /** Per op: indices and selectivities of its downstream operators. */
  private val downIdx: Array[Array[Int]] = ops.map(_.downstream.map(d => opIdx(d._1)).toArray).toArray
  private val downSel: Array[Array[Double]] = ops.map(_.downstream.map(_._2).toArray).toArray

  // ---- per-run mutable state ----------------------------------------------

  private val secMetrics = mutable.ArrayBuffer.empty[SecondMetric]
  private val moveLog = mutable.ArrayBuffer.empty[MoveRecord]
  private val repartLog = mutable.ArrayBuffer.empty[RepartitionRecord]
  private val schedMillis = mutable.ArrayBuffer.empty[Double]

  private val cumEntry = new CompletionStats
  private var cumAllLatency = 0.0

  private var currentSec: Double = 0.0
  private var secMigrationBytes = 0.0
  private var secRemoteBytes = 0.0
  private var secBackpressured = 0.0
  private var secOffered = 0.0
  private var deferred = 0

  /** Cores per node that no task holds. Every task runs on a whole core of
    * its own (§3.2): a task added to a node whose cores are all held waits
    * in that node's queue, first come first served, for the next one freed.
    */
  private val freeCores = Array.fill(numNodes)(cluster.coresPerNode)
  private val waitingForCore = Array.fill(numNodes)(mutable.Queue.empty[TaskRuntime])

  // ---- executor layout -----------------------------------------------------

  private val controller: Controller = config.paradigm match {
    case Paradigm.Static => new StaticController
    case Paradigm.ResourceCentric() => new ResourceCentricController
    case Paradigm.ExecutorCentric(naive) => new ExecutorCentricController(naive)
  }

  /** Per op: its executor runtimes (EC: y of them; static/RC: exactly one
    * whose tasks are the operator's single-core executors).
    */
  private val execs: IndexedSeq[IndexedSeq[ExecutorRuntime]] = controller.layout()
  private val allExecs: IndexedSeq[ExecutorRuntime] = execs.flatten

  /** Steady-state input rate per op at t=0, used to size static allocations. */
  private def steadyRates(t: Double): Array[Double] = {
    val r = new Array[Double](ops.length)
    for (j <- ops.indices) {
      r(j) += workload.externalRate(ops(j).name, t)
      for (d <- downIdx(j).indices) r(downIdx(j)(d)) += r(j) * downSel(j)(d)
    }
    r
  }

  /** Append into a hold buffer, merging cohorts within 10 ms so long pauses
    * don't accumulate unbounded cohort objects.
    */
  private def appendHold(hold: mutable.ArrayBuffer[Cohort], now: Double, work: Double, tuples: Double): Unit = {
    if (work <= 0) return
    if (hold.nonEmpty && now - hold.last.arrivalSec < 0.010) {
      hold.last.work += work
      hold.last.tuples += tuples
    } else hold += new Cohort(now, work, tuples)
  }

  // ---- weight refresh ------------------------------------------------------

  private def refreshWeights(): Unit = {
    for (j <- ops.indices) {
      val perOp = execs(j)
      val z = perOp.head.numShards
      val w = workload.shardWeights(ops(j).name, perOp.length, z)
      for (e <- perOp.indices) perOp(e).setShardWeights(w, e * z)
    }
  }

  // ---- main loop -----------------------------------------------------------

  /** Run the simulation and return aggregated results. Per tick the work is
    * O(operators + tasks + active moves): executors route by their cached
    * shares, and shard-sized work happens only when weights, pauses or task
    * sets change.
    *
    * Every task with work holds a whole core, so each executor's tasks are
    * routed and each drains a whole tick in one pass.
    */
  def run(): SimResult = {
    val dt = config.tickSec
    val steps = math.round(config.durationSec / dt).toInt
    val secStats = Array.fill(ops.length)(new CompletionStats)
    val internalRate = new Array[Double](ops.length)
    val rates = new Array[Double](ops.length)
    var nextSecond = 1.0

    refreshWeights()
    controller.warmStart(steadyRates(0.0))
    allExecs.foreach(_.tasks.foreach(acquireCore))
    checkCores()

    var step = 0
    while (step < steps) {
      val now = step * dt
      currentSec = now
      // A detected distribution change triggers an immediate balance check
      // (metrics monitoring is continuous in the real system); without it,
      // queues build for up to a full check period first.
      val shuffled = workload.advanceTo(now)
      if (shuffled) refreshWeights()

      // Input rates: external plus internal emissions from the previous tick.
      var j = 0
      while (j < ops.length) {
        rates(j) = workload.externalRate(ops(j).name, now) + internalRate(j)
        j += 1
      }
      secOffered += rates(entryOp) * dt
      java.util.Arrays.fill(internalRate, 0.0)

      // Arrivals and service.
      val endOfTick = now + dt
      j = 0
      while (j < ops.length) {
        val completed = arriveOp(j, rates(j), now, dt, secStats(j))
        val down = downIdx(j)
        var d = 0
        while (d < down.length) {
          internalRate(down(d)) += completed * downSel(j)(d) / dt
          d += 1
        }
        j += 1
      }

      controller.control(now, shuffled, rates)

      // Per-second metric rollover.
      if (endOfTick + 1e-9 >= nextSecond) {
        val entry = secStats(entryOp)
        val allLat = secStats.map(_.latencySum).sum
        val mean = if (entry.tuples > 0) allLat / entry.tuples else 0.0
        secMetrics += SecondMetric(nextSecond.toInt, entry.tuples, mean,
          secMigrationBytes, secRemoteBytes, secBackpressured, secOffered)
        if (nextSecond > config.warmupSec) {
          cumEntry.addFrom(entry)
          cumAllLatency += allLat
        }
        for (j <- ops.indices) secStats(j) = new CompletionStats
        secMigrationBytes = 0; secRemoteBytes = 0; secBackpressured = 0; secOffered = 0
        nextSecond += 1.0
      }
      step += 1
    }

    new SimResult(secMetrics.toIndexedSeq, moveLog.toIndexedSeq, repartLog.toIndexedSeq,
      schedMillis.toIndexedSeq, cumEntry, cumAllLatency, config.warmupSec,
      math.max(config.durationSec - config.warmupSec, 1e-9), deferred)
  }

  /** Route one tick of op `j`'s input at rate `opRate` and drain every task
    * of the op for the whole tick, each executor's active tasks then its
    * retiring ones; returns the completed tuples, and `stats` records their
    * latencies. While the paradigm pauses the op, its input goes to the hold
    * buffer and its tasks are routed nothing.
    */
  private def arriveOp(j: Int, opRate: Double, now: Double, dt: Double, stats: CompletionStats): Double = {
    val routed = controller.pausedHold(j) match {
      case Some(hold) =>
        appendHold(hold, now, opRate * dt * ops(j).cpuSecPerTuple, opRate * dt)
        0.0
      case None => opRate
    }
    val perOp = execs(j)
    var completed = 0.0
    var e = 0
    while (e < perOp.length) {
      completed = arrive(perOp(e), routed, now, dt, stats, completed)
      val retiring = perOp(e).retiring
      var t = 0
      while (t < retiring.length) {
        completed += retiring(t).drain(dt, now + dt, stats)
        t += 1
      }
      e += 1
    }
    completed
  }

  /** Route one tick of executor `rt`'s input at operator rate `opRate`: a
    * cohort per task with a positive share, and the paused shards' part into
    * their moves' hold buffers. Each active task drains the whole tick right
    * after its cohort arrives; returns `completed` plus the tuples they
    * complete, added in task order.
    *
    * A cohort that lands on an empty queue and fits the tick completes
    * here ([[TaskRuntime.takesWhole]]) and refuses nothing; any other is
    * enqueued and drained. Every cohort that completes here has the same
    * latency, so its bucket is found once per call, and `stats`' sums and
    * that bucket's count stay in locals. They are written back before, and
    * reloaded after, each `drain`, which records into `stats` too, so every
    * add into it happens in the same order as one `record` per completion.
    */
  private def arrive(rt: ExecutorRuntime, opRate: Double, now: Double, dt: Double,
                     stats: CompletionStats, completed: Double): Double = {
    val cpuSecPerTuple = rt.op.cpuSecPerTuple
    val endOfTick = now + dt
    val latency = math.max(0.0, endOfTick - now)
    val bucket = CompletionStats.bucketOf(latency)
    var acc = completed
    rt.windowArrivals += opRate * rt.totalShare * dt
    // Remote NIC cap, the one paradigm property routing reads (once per
    // executor): the receiver forwards at most one NIC's worth of bytes to
    // remote tasks per tick.
    var remoteScale = 1.0
    if (controller.capsRemoteNic) {
      val rs = rt.remoteShare
      if (rs > 0) {
        val demand = opRate * rs * dt * (rt.op.tupleBytes + rt.op.outBytes)
        val budget = cluster.networkBytesPerSec * dt
        if (demand > budget) remoteScale = budget / demand
        secRemoteBytes += math.min(demand, budget)
      }
    }
    val shares = rt.taskShare
    val tasks = rt.tasks
    var statTuples = stats.tuples
    var statLatency = stats.latencySum
    var statBucket = stats.hist(bucket)
    var t = 0
    while (t < tasks.length) {
      val share = shares(t)
      val task = tasks(t)
      var tuples = 0.0
      if (share > 0) {
        // Without the cap remoteScale is exactly 1.0, and x * 1.0 == x.
        val scale = if (task.node != rt.localNode) remoteScale else 1.0
        tuples = opRate * share * dt * scale
        if (scale < 1.0) secBackpressured += opRate * share * dt * (1 - scale)
      }
      val work = tuples * cpuSecPerTuple
      if (tuples > 0 && task.takesWhole(work, dt)) {
        task.completeWhole(work, tuples)
        statTuples += tuples
        statLatency += tuples * latency
        statBucket += tuples
        acc += tuples
      } else {
        if (tuples > 0) secBackpressured += task.enqueue(now, work, tuples)
        stats.tuples = statTuples
        stats.latencySum = statLatency
        stats.hist(bucket) = statBucket
        acc += task.drain(dt, endOfTick, stats)
        statTuples = stats.tuples
        statLatency = stats.latencySum
        statBucket = stats.hist(bucket)
      }
      t += 1
    }
    stats.tuples = statTuples
    stats.latencySum = statLatency
    stats.hist(bucket) = statBucket
    // Paused shards: buffer at the move's hold.
    var i = 0
    while (i < rt.activeMoves.length) {
      val m = rt.activeMoves(i)
      val w = rt.shardWeight(m.shard)
      if (w > 0)
        appendHold(m.hold, now, opRate * w * dt * cpuSecPerTuple, opRate * w * dt)
      i += 1
    }
    acc
  }

  /** Give task `t` a free core on its node, or queue it for the next one. */
  private def acquireCore(t: TaskRuntime): Unit =
    if (freeCores(t.node) > 0) { freeCores(t.node) -= 1; t.holdsCore = true }
    else waitingForCore(t.node).enqueue(t)

  /** Free task `t`'s core; the first task waiting on its node takes it. */
  private def releaseCore(t: TaskRuntime): Unit = {
    t.holdsCore = false
    val waiting = waitingForCore(t.node)
    if (waiting.isEmpty) freeCores(t.node) += 1 else waiting.dequeue().holdsCore = true
  }

  /** The core rule: no node holds more active tasks, or more tasks holding a
    * core, than it has cores, and every task with queued work holds a core.
    * Called wherever task sets or core holdings change: after warm start,
    * after a scheduler decision is applied, and on a tick that completes a
    * move or frees a core.
    */
  private def checkCores(): Unit = {
    val active = new Array[Int](numNodes)
    val holding = new Array[Int](numNodes)
    def holds(t: TaskRuntime): Unit =
      if (t.holdsCore) holding(t.node) += 1
      else if (!t.isDrained)
        throw new IllegalStateException(s"a task on node ${t.node} has queued work but holds no core")
    for (rt <- allExecs) {
      rt.tasks.foreach { t => active(t.node) += 1; holds(t) }
      rt.retiring.foreach(holds)
    }
    for (i <- 0 until numNodes if active(i) > cluster.coresPerNode || holding(i) > cluster.coresPerNode)
      throw new IllegalStateException(s"node $i has ${active(i)} active tasks and ${holding(i)} " +
        s"holding a core, on ${cluster.coresPerNode} cores")
  }

  /** Expose layout for tests: (op name, executors, tasks each). */
  def layout: IndexedSeq[(String, Int, IndexedSeq[Int])] =
    ops.indices.map(j => (ops(j).name, execs(j).length, execs(j).map(_.tasks.length)))

  // ---- controllers ---------------------------------------------------------

  /** One paradigm's decisions. The engine calls `layout` once, `warmStart`
    * before the clock starts, and per tick `pausedHold` while routing and
    * `control` after arrivals; it never branches on the paradigm itself.
    *
    * @param capsRemoteNic whether each executor's receiver forwards to its
    *                      remote tasks through one NIC (§3.2), capping the
    *                      remote bytes per tick
    */
  private abstract class Controller(val capsRemoteNic: Boolean) {
    /** Per op: its executor runtimes. */
    def layout(): IndexedSeq[IndexedSeq[ExecutorRuntime]]

    /** Warm start (t = 0) at the steady-state per-op rates. The paper's
      * measurements start from a provisioned steady state; without it, a
      * bootstrap backlog that a fully-utilised cluster can never drain
      * pollutes every latency figure.
      */
    def warmStart(rates: Array[Double]): Unit = ()

    /** Hold buffer for all of op `op`'s input while the paradigm pauses it. */
    def pausedHold(op: Int): Option[mutable.ArrayBuffer[Cohort]] = None

    /** One tick of control at tick time `now`, given this tick's op input
      * rates: advance in-flight protocol state machines, then periodic work.
      */
    def control(now: Double, shuffled: Boolean, rates: Array[Double]): Unit = ()
  }

  /** Storm default: one runtime per operator whose tasks are its single-core
    * executors, over a static hash partition of the keys; no elasticity.
    */
  private class StaticController extends Controller(capsRemoteNic = false) {
    def layout(): IndexedSeq[IndexedSeq[ExecutorRuntime]] = {
      require(ops.length <= cluster.totalCores,
        s"${ops.length} operators need at least one core each; cluster has ${cluster.totalCores}")
      // Allocate all cores across operators proportionally to their steady
      // CPU demand ("enough executors to fully utilize all CPU cores", §5);
      // executors are placed round-robin across nodes.
      val rates = steadyRates(0.0)
      val demand = ops.indices.map(j => math.max(rates(j) * ops(j).cpuSecPerTuple, 1e-9))
      val total = demand.sum
      val cores = ops.indices.map(j =>
        math.max(1, math.round(cluster.totalCores * demand(j) / total).toInt)).toArray
      // Trim rounding overflow from the biggest allocations.
      var excess = cores.sum - cluster.totalCores
      while (excess > 0) {
        val j = cores.indices.maxBy(cores)
        if (cores(j) > 1) { cores(j) -= 1; excess -= 1 } else excess = 0
      }
      var node = 0
      for (j <- ops.indices) yield {
        // One runtime holding as many shards as the executor-centric layout
        // has in total: the same granularity in every paradigm (§5 setup).
        // Its new map is the static key partition, shard s -> task s mod T.
        val z = config.executorsOf(ops(j).name) * config.shardsPerExecutor
        val nodes = (0 until cores(j)).map { _ => val n = node % numNodes; node += 1; n }
        IndexedSeq(new ExecutorRuntime(ops(j), z, nodes.head, nodes))
      }
    }
  }

  /** Resource-centric: the static layout plus operator-level key
    * repartitioning with global synchronization (pause all upstream, drain
    * in-flight, migrate state, update upstream routing tables).
    */
  private final class ResourceCentricController extends StaticController {
    private val checkPeriodSec = 1.0
    /** RC repartition in flight, per op. */
    private final class RepartitionOp(val startSec: Double,
                                      val moves: List[LoadBalancer.Move],
                                      val targetAssignment: IndexedSeq[Int]) {
      var phase = 0 // 0 pause, 1 drain, 2 transfer
      var pauseEndSec: Double = startSec + cluster.controlRttSec
      var drainEndSec: Double = Double.NaN
      var transferEndSec: Double = Double.NaN
      var routingSec: Double = Double.NaN
      var migrateSec: Double = Double.NaN
      var bytes: Double = 0.0
      val hold = mutable.ArrayBuffer.empty[Cohort]
    }
    private val active = new Array[RepartitionOp](ops.length)
    private var lastCheck = 0.0

    // RC systems rebalance on deploy: start from a balanced shard map, at no
    // protocol cost.
    override def warmStart(rates: Array[Double]): Unit =
      for (j <- ops.indices; rt = execs(j).head) rt.remap(rt.rebalance(rates(j)).assignment)

    override def pausedHold(op: Int): Option[mutable.ArrayBuffer[Cohort]] =
      if (active(op) == null) None else Some(active(op).hold)

    override def control(now: Double, shuffled: Boolean, rates: Array[Double]): Unit = {
      var j = 0
      while (j < ops.length) { advance(j); j += 1 }
      // RC's controller aggregates operator-level metrics globally; it
      // reacts on its periodic cadence, not instantly on a shuffle —
      // queues build in the hot executors until the check fires, and
      // draining them is part of the global synchronization.
      if (now - lastCheck >= checkPeriodSec) {
        lastCheck = now
        for (j <- ops.indices) maybeRepartition(j, rates(j))
      }
    }

    private def maybeRepartition(op: Int, opRate: Double): Unit = {
      val rt = execs(op).head
      if (active(op) != null || rt.isBalanced) return
      val reb = rt.rebalance(opRate)
      if (reb.moves.nonEmpty) active(op) = new RepartitionOp(currentSec, reb.moves, reb.assignment)
    }

    private def advance(op: Int): Unit = {
      val r = active(op)
      if (r == null) return
      val rt = execs(op).head
      r.phase match {
        case 0 =>
          if (currentSec >= r.pauseEndSec) r.phase = 1
        case 1 =>
          if (rt.tasks.forall(_.isDrained)) {
            r.drainEndSec = currentSec
            val crossBytes = r.moves.iterator
              .filter(m => rt.tasks(m.fromTask).node != rt.tasks(m.toTask).node)
              .map(_ => rt.op.statePerShardBytes).sum
            r.bytes = crossBytes
            // Each shard pays the reassignment control overhead (the moves are
            // applied shard-by-shard to keep per-key order), plus the network
            // transfer of cross-node state.
            r.migrateSec = r.moves.length * cluster.shardSyncOverheadSec +
              cluster.transferSec(crossBytes)
            // Routing tables of every upstream executor are updated while the
            // operator is paused: a request+ack round trip each, serialized
            // through the controller — the global synchronization the
            // executor-centric approach avoids (§3.3).
            r.routingSec = 2 * cluster.controlRttSec * workload.upstreamExecutorCount
            r.transferEndSec = currentSec + r.migrateSec + r.routingSec
            r.phase = 2
          }
        case _ =>
          if (currentSec >= r.transferEndSec) {
            rt.remap(r.targetAssignment)
            // Flush held input proportionally to the new task shares.
            val shares = rt.taskShare
            val total = math.max(shares.sum, 1e-12)
            for (c <- r.hold; t <- rt.tasks.indices) {
              val f = shares(t) / total
              if (f > 0)
                secBackpressured += rt.tasks(t).enqueue(c.arrivalSec, c.work * f, c.tuples * f)
            }
            secMigrationBytes += r.bytes
            repartLog += RepartitionRecord(r.startSec, rt.op.name, r.moves.length,
              r.pauseEndSec - r.startSec, r.drainEndSec - r.pauseEndSec,
              r.routingSec, r.migrateSec, r.bytes)
            active(op) = null
          }
      }
    }
  }

  /** Executor-centric (Elasticutor): y elastic executors per operator with
    * cores from the model-based scheduler, intra-executor load balancing,
    * and per-shard consistent reassignment (§3.3).
    */
  private final class ExecutorCentricController(naive: Boolean)
    extends Controller(capsRemoteNic = true) {
    private val schedulePeriodSec = 1.0
    private val balancePeriodSec = 0.25
    private var lastBalance = 0.0
    private var lastSchedule = 0.0

    def layout(): IndexedSeq[IndexedSeq[ExecutorRuntime]] = {
      var node = 0
      val out = for (j <- ops.indices) yield {
        for (_ <- 0 until config.executorsOf(ops(j).name)) yield {
          val local = node % numNodes
          node += 1
          new ExecutorRuntime(ops(j), config.shardsPerExecutor, local, IndexedSeq(local))
        }
      }
      val totalExecs = out.map(_.length).sum
      require(totalExecs <= cluster.totalCores,
        s"$totalExecs executors need at least that many cores; cluster has ${cluster.totalCores}")
      out
    }

    /** Provision executors with the real scheduler, installing tasks on the
      * decision's nodes (all still empty; every executor gets at least one
      * core) and balanced shard maps directly — no protocol, no cost.
      */
    override def warmStart(rates: Array[Double]): Unit =
      decide(rt => rates(opIdx(rt.op.name)) * rt.totalShare).assignment.foreach { a =>
        for (j <- allExecs.indices) {
          val rt = allExecs(j)
          rt.replaceTasks((0 until numNodes).flatMap(i => Seq.fill(a.cores(i)(j))(new TaskRuntime(i))))
          rt.remap(rt.rebalance(rates(opIdx(rt.op.name))).assignment)
        }
      }

    override def control(now: Double, shuffled: Boolean, rates: Array[Double]): Unit = {
      var changed = false
      var x = 0
      while (x < allExecs.length) {
        if (advanceMoves(allExecs(x))) changed = true
        x += 1
      }
      if (changed) checkCores()
      if (shuffled || now - lastBalance >= balancePeriodSec) {
        lastBalance = now
        for (j <- ops.indices; rt <- execs(j)) maybeRebalance(rt, rates(j))
      }
      if (now - lastSchedule >= schedulePeriodSec && now > 0) {
        lastSchedule = now
        val decision = decide(_.windowArrivals / schedulePeriodSec)
        allExecs.foreach(_.windowArrivals = 0.0)
        schedMillis += decision.wallClockMillis
        decision.assignment.foreach(applyDecision(_, rates))
      }
    }

    /** Apply decision `a` to every executor whose per-node core counts it
      * changes or, if one of those still has shard moves or retiring tasks
      * in flight, to none of them and count it as deferred. Algorithm 1 fits
      * its output to the cluster, so a whole decision never gives a node
      * more active tasks than cores.
      */
    private def applyDecision(a: CpuAssignment.Assignment, rates: Array[Double]): Unit = {
      val changes = allExecs.indices.map(j => allExecs(j) -> Array.tabulate(numNodes)(i => a.cores(i)(j)))
        .filterNot { case (rt, counts) => java.util.Arrays.equals(rt.coresPerNode(numNodes), counts) }
      if (changes.exists { case (rt, _) => rt.activeMoves.nonEmpty || rt.retiring.nonEmpty }) deferred += 1
      else {
        for ((rt, counts) <- changes) applyAssignment(rt, counts, rates(opIdx(rt.op.name)))
        checkCores()
      }
    }

    /** One scheduler call on each executor's arrival rate `lambdaOf(rt)`
      * (tuples/s), from the currently installed assignment X̃.
      */
    private def decide(lambdaOf: ExecutorRuntime => Double): DynamicScheduler.Decision = {
      val lambdas = allExecs.map(lambdaOf)
      // λ is inflated by θ: the M/M/k model pools an executor's cores into one
      // queue, but real tasks tolerate up to θ× the mean load (§3.1), so the
      // hottest task needs θ·λ/k < μ — provisioning for θλ guarantees it.
      val loads = allExecs.lazyZip(lambdas).map((rt, lambda) =>
        QueueingModel.ExecutorLoad(lambda * config.theta, 1.0 / rt.op.cpuSecPerTuple))
      val infos = allExecs.lazyZip(lambdas).map((rt, lambda) =>
        CpuAssignment.ExecutorInfo(rt.localNode, rt.stateBytes,
          lambda * (rt.op.tupleBytes + rt.op.outBytes) / math.max(1, rt.tasks.length)))
      def prev = {
        val held = allExecs.map(_.coresPerNode(numNodes))
        CpuAssignment.Assignment(IndexedSeq.tabulate(numNodes)(i => held.map(_(i))))
      }
      val capacity = IndexedSeq.fill(numNodes)(cluster.coresPerNode)
      if (naive) DynamicScheduler.scheduleNaive(loads, infos, capacity, config.latencyTargetSec)
      else DynamicScheduler.schedule(loads, infos, prev, capacity, config.latencyTargetSec, config.phi0)
    }

    /** Install a new per-node core count vector on an executor with no moves
      * or retiring tasks in flight: diff against current tasks, retire/add
      * tasks, and launch the shard moves that rebalance onto the new task
      * set. A fresh task takes a free core on its node or waits for one; a
      * retiring task keeps its core until it has drained.
      */
    private def applyAssignment(rt: ExecutorRuntime, newCounts: Array[Int], opRate: Double): Unit = {
      require(newCounts.sum > 0, s"a decision strips an executor of ${rt.op.name} of its last core")

      // Per node: keep the first tasks up to the new count, retire the rest,
      // and add fresh tasks for any shortfall (by index into `rt.tasks`).
      val (kept, dropped) = (0 until numNodes).map(node =>
        rt.tasks.indices.filter(rt.tasks(_).node == node).splitAt(newCounts(node))).unzip
      val fresh = (0 until numNodes).flatMap(node =>
        Seq.fill(newCounts(node) - kept(node).length)(new TaskRuntime(node)))
      val newTasks = kept.flatten.map(rt.tasks) ++ fresh
      val removed = dropped.flatten.map(rt.tasks)
      val n = newTasks.length

      // Removed tasks are numbered after the new task set, so `resize`
      // evacuates their shards (its forced moves, FFD onto the least-loaded
      // new task) before refining the balance.
      val renumber = new Array[Int](rt.tasks.length)
      kept.flatten.zipWithIndex.foreach { case (t, k) => renumber(t) = k }
      dropped.flatten.zipWithIndex.foreach { case (t, r) => renumber(t) = n + r }
      val current = Array.tabulate(rt.numShards)(s => renumber(rt.taskOf(s)))
      val reb = LoadBalancer.resize(rt.shardLoads(opRate), current.toIndexedSeq, n + removed.length, n)
      val (forced, refine) = reb.moves.partition(_.fromTask >= n)
      forced.foreach(m => current(m.shard) = m.toTask)

      // Install the new task set and the renumbered map (renumbering survivor
      // indices is pure bookkeeping, not a migration); each forced shard
      // still leaves its removed task through the protocol.
      rt.replaceTasks(newTasks)
      rt.remap(current)
      for (m <- forced) startMove(rt, m.shard, removed(m.fromTask - n), m.toTask)
      for (m <- LoadBalancer.collapse(refine) if !rt.isPaused(m.shard))
        startMove(rt, m.shard, rt.tasks(m.fromTask), m.toTask)
      // A removed task retires on its core. One still waiting for a core has
      // had no move onto it, so no shards and no work: it leaves the queue.
      for (t <- removed) if (t.holdsCore) rt.retiring += t else waitingForCore(t.node).removeFirst(_ eq t)
      fresh.foreach(acquireCore)
    }

    /** Periodic intra-executor balance check. */
    private def maybeRebalance(rt: ExecutorRuntime, opRate: Double): Unit =
      if (rt.activeMoves.isEmpty && !rt.isBalanced)
        for (m <- LoadBalancer.collapse(rt.rebalance(opRate).moves))
          startMove(rt, m.shard, rt.tasks(m.fromTask), m.toTask)

    private def startMove(rt: ExecutorRuntime, shard: Int, fromTask: TaskRuntime, toTask: Int): Unit = {
      val interNode = fromTask.node != rt.tasks(toTask).node
      rt.pause(shard)
      rt.activeMoves += new ShardMoveOp(shard, fromTask, toTask, currentSec,
        rt.op.statePerShardBytes, interNode)
    }

    /** Advance `rt`'s moves by one tick and free the cores of its retiring
      * tasks that are done; returns whether a move completed or a core was
      * freed. A move completes only once its target task holds a core.
      */
    private def advanceMoves(rt: ExecutorRuntime): Boolean = {
      if (rt.activeMoves.isEmpty && rt.retiring.isEmpty) return false
      val moves = rt.activeMoves.length
      // One pass in move order; a move that resumes leaves the list.
      rt.activeMoves.filterInPlace { m =>
        if (m.phase == ShardMoveOp.Draining) {
          if (m.fromTask.drainedWork + 1e-9 >= m.drainTarget) {
            m.syncEndSec = currentSec + cluster.shardSyncOverheadSec
            m.migrateEndSec = m.syncEndSec +
              (if (m.interNode) cluster.transferSec(m.stateBytes) else 0.0)
            m.phase = ShardMoveOp.Migrating
          }
          true
        } else {
          val dst = rt.tasks(m.toTaskIndex)
          val resumes = currentSec >= m.migrateEndSec && dst.holdsCore
          if (resumes) {
            rt.resume(m.shard, m.toTaskIndex)
            m.hold.foreach(c => secBackpressured += dst.enqueue(c))
            val bytes = if (m.interNode) m.stateBytes else 0.0
            if (m.interNode) { secMigrationBytes += bytes }
            moveLog += MoveRecord(m.startSec, rt.op.name, m.interNode,
              m.syncEndSec - m.startSec, m.migrateEndSec - m.syncEndSec, bytes, currentSec)
          }
          !resumes
        }
      }
      // A retiring task leaves and frees its core once its queue is empty and
      // every move out of it has passed its labeling tuple: the state
      // migration needs no core.
      val retiring = rt.retiring.length
      rt.retiring.filterInPlace { t =>
        val done = t.isDrained &&
          !rt.activeMoves.exists(m => (m.fromTask eq t) && m.phase == ShardMoveOp.Draining)
        if (done) releaseCore(t)
        !done
      }
      rt.activeMoves.length < moves || rt.retiring.length < retiring
    }
  }
}
