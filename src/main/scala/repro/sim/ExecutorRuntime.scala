package repro.sim

import scala.collection.mutable
import repro.core.LoadBalancer

/** A batch of tuples that arrived together; the unit of queueing in the
  * fluid simulation (held in hold buffers as objects, queued in a task's
  * ring as three doubles). `work` is CPU-seconds, `tuples` the (fractional)
  * tuple count it represents. FIFO draining of cohorts preserves the per-key
  * arrival order the paper's correctness argument relies on.
  */
final class Cohort(val arrivalSec: Double, var work: Double, var tuples: Double)

/** Tuple-weighted latency/throughput accumulator with a log-scale histogram
  * (decade split into 10 buckets) for percentile queries.
  */
final class CompletionStats {
  var tuples: Double = 0.0
  var latencySum: Double = 0.0
  /** Tuples per bucket: 1 µs .. 1e6 s, log10 buckets ×10. The engine keeps
    * one bucket's count in a local across a loop of [[record]]-equivalent
    * adds, so it reads and writes the array directly.
    */
  private[sim] val hist = new Array[Double](CompletionStats.Buckets)

  def record(n: Double, latencySec: Double): Unit = {
    if (n <= 0) return
    tuples += n
    latencySum += n * latencySec
    hist(CompletionStats.bucketOf(latencySec)) += n
  }

  /** Latency at quantile `q` (upper edge of the histogram bucket). */
  def latencyQuantile(q: Double): Double = {
    require(q > 0 && q <= 1, s"quantile out of range: $q")
    if (tuples <= 0) return 0.0
    val target = q * tuples
    var acc = 0.0
    var i = 0
    while (i < hist.length) {
      acc += hist(i)
      if (acc >= target) return math.pow(10, (i + 1) / 10.0 - 6.0)
      i += 1
    }
    math.pow(10, hist.length / 10.0 - 6.0)
  }

  def addFrom(o: CompletionStats): Unit = {
    tuples += o.tuples
    latencySum += o.latencySum
    var i = 0
    while (i < hist.length) { hist(i) += o.hist(i); i += 1 }
  }
}

object CompletionStats {
  final val Buckets = 120

  /** Bucket `i` of a latency `l` is `((log10(max(l, 1e-6)) + 6) * 10).toInt`,
    * clamped to `[0, Buckets)`. That formula is non-decreasing in `l`
    * (`Math.log10` is semi-monotonic and every later step is monotonic), so
    * `edges(k - 1)`, the smallest double whose bucket is at least `k`, found
    * by bisecting the bit patterns of the non-negative doubles, turns it
    * into a table: the bucket is the number of edges at or below `l`.
    */
  private[sim] val edges: Array[Double] = Array.tabulate(Buckets - 1) { i =>
    def bucket(l: Double): Int =
      math.min(Buckets - 1, math.max(0, ((math.log10(math.max(l, 1e-6)) + 6.0) * 10).toInt))
    val k = i + 1
    var lo = java.lang.Double.doubleToLongBits(0.0) // bucket(lo) < k
    var hi = java.lang.Double.doubleToLongBits(Double.MaxValue) // bucket(hi) >= k
    while (hi - lo > 1) {
      val mid = (lo + hi) >>> 1
      if (bucket(java.lang.Double.longBitsToDouble(mid)) >= k) hi = mid else lo = mid
    }
    java.lang.Double.longBitsToDouble(hi)
  }

  /** Bucket of the smallest non-negative double with each 13-bit prefix of its
    * IEEE bits (11 exponent bits and the top 2 mantissa bits, a
    * quarter-octave). A prefix spans at most 1.25× and consecutive edges lie
    * 10^0.1 ≈ 1.26× apart, so at most one edge falls inside a prefix; the
    * `require` checks that on the built table.
    */
  private val prefixBucket: Array[Byte] = {
    val table = new Array[Byte](1 << 13)
    var k = 0
    var p = 0
    while (p < table.length) {
      val smallest = java.lang.Double.longBitsToDouble(p.toLong << 50)
      while (k < edges.length && edges(k) <= smallest) k += 1
      table(p) = k.toByte
      p += 1
    }
    require((1 until table.length).forall(p => table(p) - table(p - 1) <= 1),
      "a 13-bit prefix holds more than one histogram edge")
    table
  }

  /** Histogram bucket of a latency: the number of `edges` at or below it,
    * read from its bit prefix plus one comparison with the next edge. A NaN,
    * zero or negative latency lands in bucket 0 and +∞ in the last one, as
    * they do under the formula. The test is `> 0`, not `>= 0`, so -0.0 (sign
    * bit set) never reaches the table.
    */
  def bucketOf(latencySec: Double): Int = {
    if (!(latencySec > 0)) return 0
    val k = prefixBucket((java.lang.Double.doubleToRawLongBits(latencySec) >>> 50).toInt)
    if (k < edges.length && edges(k) <= latencySec) k + 1 else k
  }
}

/** One data-processing thread bound to one CPU core (§3.2). Holds a FIFO
  * pending queue of cohorts; drains one core's worth of work per tick.
  *
  * The queue is a growable ring of primitive doubles, three per cohort
  * (arrival, work, tuples), so enqueueing allocates nothing once the ring
  * has grown to the task's peak backlog.
  */
final class TaskRuntime(val node: Int) {
  /** Cohort `k` of the queue (0 = head) is at `3 * ((head + k) & (capacity - 1))`. */
  private var ring = new Array[Double](3 * TaskRuntime.InitialCapacity)
  private var capacity = TaskRuntime.InitialCapacity
  private var head = 0
  private var size = 0

  var queuedWork: Double = 0.0
  var queuedTuples: Double = 0.0

  /** Whether the engine has granted the task its core; until then it gets no work. */
  var holdsCore: Boolean = false

  /** Cumulative work ever drained — the labeling-tuple protocol (§3.3)
    * compares against this to know when pre-pause tuples are done.
    */
  var drainedWork: Double = 0.0

  /** Enqueue a held cohort (a hold-buffer flush); `c` is not modified. */
  def enqueue(c: Cohort): Double = enqueue(c.arrivalSec, c.work, c.tuples)

  /** Enqueue a cohort, honouring the back-pressure cap: work beyond
    * `TaskRuntime.MaxQueueSec` is refused (the source is throttled). Returns
    * the number of refused tuples.
    */
  def enqueue(arrivalSec: Double, work: Double, tuples: Double): Double = {
    if (work <= 0) return 0.0
    val room = TaskRuntime.MaxQueueSec - queuedWork
    if (room <= 0) return tuples
    if (work <= room) {
      push(arrivalSec, work, tuples)
      queuedWork += work
      queuedTuples += tuples
      0.0
    } else {
      val frac = room / work
      val refused = tuples * (1 - frac)
      val admitted = tuples * frac
      push(arrivalSec, room, admitted)
      queuedWork += room
      queuedTuples += admitted
      refused
    }
  }

  private def push(arrivalSec: Double, work: Double, tuples: Double): Unit = {
    if (size == capacity) grow()
    val i = 3 * ((head + size) & (capacity - 1))
    ring(i) = arrivalSec
    ring(i + 1) = work
    ring(i + 2) = tuples
    size += 1
  }

  /** Double the ring, unwrapping the queue to start at slot 0. */
  private def grow(): Unit = {
    val bigger = new Array[Double](6 * capacity)
    val first = 3 * (capacity - head) // doubles from the head to the ring's end
    System.arraycopy(ring, 3 * head, bigger, 0, first)
    System.arraycopy(ring, 0, bigger, first, 3 * head)
    ring = bigger
    capacity *= 2
    head = 0
  }

  /** Drain up to `capacitySec` of work ending at `nowSec`; completed
    * (fractions of) cohorts are reported to `stats` with their sojourn time
    * and to the caller as the number of completed tuples.
    *
    * The queue's fields live in locals for the loop. A cohort that fits the
    * remaining capacity is taken whole: its fraction `work / work` is exactly
    * 1, so it completes `tuples` with no division. A popped slot is not
    * written, since nothing reads it before the next push overwrites it.
    */
  def drain(capacitySec: Double, nowSec: Double, stats: CompletionStats): Double = {
    val r = ring
    val mask = capacity - 1
    var h = head
    var n = size
    var qWork = queuedWork
    var qTuples = queuedTuples
    var drained = drainedWork
    var cap = capacitySec
    var completed = 0.0
    while (cap > 1e-12 && n > 0) {
      val i = 3 * h
      val work = r(i + 1)
      val tuples = r(i + 2)
      if (work <= cap) {
        stats.record(tuples, math.max(0.0, nowSec - r(i)))
        completed += tuples
        qWork -= work
        qTuples -= tuples
        drained += work
        cap -= work
        h = (h + 1) & mask
        n -= 1
      } else {
        val part = tuples * (cap / work)
        stats.record(part, math.max(0.0, nowSec - r(i)))
        completed += part
        val left = work - cap
        qWork -= cap
        qTuples -= part
        drained += cap
        cap = 0.0 // cap - take, where the take is all of cap
        if (left <= 1e-12) {
          h = (h + 1) & mask
          n -= 1
        } else {
          r(i + 1) = left
          r(i + 2) = tuples - part
        }
      }
    }
    head = h
    size = n
    queuedWork = if (qWork < 0) 0 else qWork
    queuedTuples = if (qTuples < 0) 0 else qTuples
    drainedWork = drained
    completed
  }

  /** Whether a cohort of `work` arriving now completes within `capacitySec`
    * without entering the ring: the queue is empty, the cohort is admitted
    * whole under [[TaskRuntime.MaxQueueSec]] and it fits, so [[enqueue]]
    * then [[drain]] would refuse none of it and complete all of it. Callers
    * take that case with [[completeWhole]], which keeps the general path out
    * of their loops.
    */
  def takesWhole(work: Double, capacitySec: Double): Boolean =
    size == 0 && work > 0 && work <= TaskRuntime.MaxQueueSec - queuedWork &&
      work <= capacitySec && capacitySec > 1e-12

  /** The task side of a cohort that [[takesWhole]] accepted: the same
    * floating-point operations on the queue's totals as [[enqueue]] then
    * [[drain]], in the same order, so the results are bit-identical. The
    * caller records the cohort's `tuples` and their latency in its stats.
    */
  def completeWhole(work: Double, tuples: Double): Unit = {
    val qWork = queuedWork + work - work
    val qTuples = queuedTuples + tuples - tuples
    drainedWork += work
    queuedWork = if (qWork < 0) 0 else qWork
    queuedTuples = if (qTuples < 0) 0 else qTuples
  }

  def isDrained: Boolean = queuedWork <= 1e-9
}

object TaskRuntime {
  final val MaxQueueSec = 4.0 // a task's queue cap in core-seconds (back-pressure)
  private[sim] final val InitialCapacity = 16 // cohorts; a power of two
}

/** Elasticutor's consistent shard reassignment (§3.3) as a state machine the
  * engine advances each tick:
  *
  *  1. draining — routing for the shard paused (arrivals collect in
  *     `hold`); a labeling tuple waits for the source task to drain
  *     everything that was queued ahead of it. Setting `syncEndSec` ends it.
  *  2. migrating — state bytes cross the network until `migrateEndSec`
  *     (skipped intra-node thanks to intra-process state sharing).
  *  3. resume — once the target task holds a core, routing table updated
  *     and hold buffer flushed to the target; the engine then drops the move.
  */
final class ShardMoveOp(val shard: Int,
                        val fromTask: TaskRuntime,
                        val toTaskIndex: Int,
                        val startSec: Double,
                        val stateBytes: Double,
                        val interNode: Boolean) {
  /** fromTask.drainedWork value at which the labeling tuple is reached. */
  var drainTarget: Double = fromTask.drainedWork + fromTask.queuedWork
  var migrateEndSec: Double = Double.NaN
  var syncEndSec: Double = Double.NaN
  val hold = mutable.ArrayBuffer.empty[Cohort]

  /** Whether the labeling tuple is still ahead: no sync end yet. */
  def isDraining: Boolean = syncEndSec.isNaN
}

/** Record of one completed Elasticutor shard reassignment (Fig. 8/9 data).
  *
  * @param timeSec    when the move started (its shard paused)
  * @param syncSec    start to the labeling tuple plus the control overhead
  * @param migrateSec the state transfer after that (0 intra-node)
  * @param resumeSec  when the routing table was updated and the shard
  *                   resumed on its target: at least `timeSec + syncSec +
  *                   migrateSec`, later by however long the target task
  *                   waited for a core
  */
final case class MoveRecord(timeSec: Double,
                            op: String,
                            interNode: Boolean,
                            syncSec: Double,
                            migrateSec: Double,
                            bytes: Double,
                            resumeSec: Double)

/** Record of one RC operator-level key repartitioning (global sync). */
final case class RepartitionRecord(timeSec: Double,
                                   op: String,
                                   shardsMoved: Int,
                                   pauseSec: Double,
                                   drainSec: Double,
                                   routingSec: Double,
                                   migrateSec: Double,
                                   bytes: Double) {
  /** Paper's "synchronization time" per shard: everything except the state
    * transfer itself.
    */
  def syncSec: Double = pauseSec + drainSec + routingSec
}

/** Runtime of one elastic executor (or, for the static/RC paradigms, of one
  * whole operator whose "tasks" are the single-core executors).
  *
  * It owns its routing state: shard weights, the tier-2 shard→task map
  * (§3.1–3.2), paused shards and the task set. Five mutators write them and
  * only mark the cached routing shares stale; the first read after a change
  * recomputes them, so no caller can route by stale shares.
  *
  * @param op          operator spec
  * @param numShards   tier-2 shard count owned by this runtime (the paper's `z`)
  * @param localNode   node of the main process (receiver/emitter)
  * @param initialTaskNodes node of each initial task
  */
final class ExecutorRuntime(val op: OperatorSpec,
                            val numShards: Int,
                            val localNode: Int,
                            initialTaskNodes: IndexedSeq[Int]) {
  require(numShards > 0, s"numShards must be positive: $numShards")
  require(initialTaskNodes.nonEmpty, s"executor needs at least one task (${op.name})")

  private val taskSet = mutable.ArrayBuffer.from(initialTaskNodes.map(new TaskRuntime(_)))
  /** Shard → index into [[tasks]]; starts round-robin, s → s mod tasks. */
  private val shardTask: Array[Int] = Array.tabulate(numShards)(_ % taskSet.length)
  /** Weight (fraction of the operator's input) of each local shard. */
  private val weights: Array[Double] = new Array[Double](numShards)
  /** True while the shard's routing is paused by an in-flight move. */
  private val paused: Array[Boolean] = new Array[Boolean](numShards)

  private var stale = true
  private var shares: Array[Double] = Array.emptyDoubleArray
  private var shareTotal: Double = 0.0
  private var shareRemote: Double = 0.0

  /** Tasks being decommissioned, each draining on its core until it is freed. */
  val retiring: mutable.ArrayBuffer[TaskRuntime] = mutable.ArrayBuffer.empty

  val activeMoves: mutable.ArrayBuffer[ShardMoveOp] = mutable.ArrayBuffer.empty

  /** Tuples offered to this executor since the scheduler last reset it (its
    * arrival measurement window): paused-shard and refused tuples included.
    */
  var windowArrivals: Double = 0.0

  /** The active tasks; a shard map entry is an index into this sequence. */
  def tasks: collection.IndexedSeq[TaskRuntime] = taskSet

  def shardWeight(shard: Int): Double = weights(shard)
  /** Task currently responsible for `shard`. */
  def taskOf(shard: Int): Int = shardTask(shard)
  def isPaused(shard: Int): Boolean = paused(shard)
  /** Snapshot of the shard → task map, as the load balancer takes it. */
  def shardMap: IndexedSeq[Int] = shardTask.toIndexedSeq

  /** Install the weights `w(from until from + numShards)` (this executor's
    * slice of the operator's global shard weights).
    */
  def setShardWeights(w: Array[Double], from: Int = 0): Unit = {
    System.arraycopy(w, from, weights, 0, numShards); stale = true
  }

  /** Replace the whole shard → task map. */
  def remap(assignment: collection.IndexedSeq[Int]): Unit = {
    require(assignment.length == numShards,
      s"assignment length ${assignment.length} != numShards $numShards")
    assignment.foreach(checkTask)
    assignment.copyToArray(shardTask)
    stale = true
  }

  /** Replace the task set; the map is round-robin over it until [[remap]]. */
  def replaceTasks(newTasks: IterableOnce[TaskRuntime]): Unit = {
    taskSet.clear()
    taskSet ++= newTasks
    require(taskSet.nonEmpty, s"executor needs at least one task (${op.name})")
    remap(IndexedSeq.tabulate(numShards)(_ % taskSet.length))
  }

  /** Pause `shard`'s routing: its arrivals go to its move's hold buffer. */
  def pause(shard: Int): Unit = { paused(shard) = true; stale = true }

  /** Route `shard` to task `toTask` and unpause it (the routing-table update
    * that ends a move, §3.3).
    */
  def resume(shard: Int, toTask: Int): Unit = {
    checkTask(toTask)
    shardTask(shard) = toTask
    paused(shard) = false
    stale = true
  }

  private def checkTask(t: Int): Unit = // no by-name message: `remap` checks every shard
    if (t < 0 || t >= taskSet.length)
      throw new IllegalArgumentException(s"task $t outside ${op.name}'s ${taskSet.length} tasks")

  /** Recompute the cached shares from the weights, pauses, shard map and
    * task set. This is the executor's only O(numShards) step; it runs on the
    * first read after a change, never per tick.
    */
  private def refresh(): Unit = {
    val share = new Array[Double](taskSet.length)
    var sum = 0.0
    var s = 0
    while (s < numShards) {
      val w = weights(s)
      sum += w
      if (!paused(s)) share(shardTask(s)) += w
      s += 1
    }
    var acc = 0.0
    var t = 0
    while (t < taskSet.length) {
      if (taskSet(t).node != localNode) acc += share(t)
      t += 1
    }
    shares = share
    shareTotal = sum
    shareRemote = acc
    stale = false
  }

  /** Σ weight of unpaused shards per task — the per-tick routing vector. */
  def taskShare: Array[Double] = { if (stale) refresh(); shares }

  /** Total weight share of this executor (paused shards included — they
    * still arrive, just into hold buffers).
    */
  def totalShare: Double = { if (stale) refresh(); shareTotal }

  /** Share arriving via remote tasks (node != localNode): the traffic that
    * crosses receiver/emitter to remote processes (§3.2).
    */
  def remoteShare: Double = { if (stale) refresh(); shareRemote }

  /** Per-shard absolute load (CPU-seconds/second) at operator input rate
    * `opRate` — the balancer's workload statistics.
    */
  def shardLoads(opRate: Double): IndexedSeq[Double] = {
    val arr = new Array[Double](numShards)
    var s = 0
    while (s < numShards) { arr(s) = opRate * weights(s) * op.cpuSecPerTuple; s += 1 }
    arr.toIndexedSeq
  }

  def stateBytes: Double = numShards.toDouble * op.statePerShardBytes

  /** Imbalance factor δ over active tasks. */
  def imbalance: Double = {
    val total = taskShare.sum
    if (total <= 0) 1.0 else taskShare.max / (total / tasks.length)
  }

  /** Whether a balance check has nothing to do: one task, or δ within θ. */
  def isBalanced: Boolean = tasks.length < 2 || imbalance <= LoadBalancer.Theta

  /** The balancer's plan (§3.1) for this executor's current map and tasks
    * at operator input rate `opRate`.
    */
  def rebalance(opRate: Double): LoadBalancer.Rebalance =
    LoadBalancer.rebalance(shardLoads(opRate), shardMap, tasks.length, LoadBalancer.Theta)

  /** Cores per node currently held (column of the assignment matrix X). */
  def coresPerNode(numNodes: Int): Array[Int] = {
    val a = new Array[Int](numNodes)
    tasks.foreach(t => a(t.node) += 1)
    a
  }
}
