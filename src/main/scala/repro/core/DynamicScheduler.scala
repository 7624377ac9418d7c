package repro.core

import repro.core.CpuAssignment.{Assignment, ExecutorInfo}
import repro.core.QueueingModel.ExecutorLoad
import scala.collection.immutable.ArraySeq

/** The global dynamic scheduler (§4): model-based core allocation followed
  * by CPU-to-executor assignment. This is the *real* algorithm the paper
  * runs on nimbus — Table 3's "scheduling time" column is the wall-clock of
  * [[DynamicScheduler.schedule]].
  */
object DynamicScheduler {

  /** A complete scheduling decision.
    *
    * @param allocation   core counts per executor from the queueing model
    * @param assignment   node-granular core matrix (None if infeasible)
    * @param phiUsed      data-intensity threshold after any doubling
    * @param wallClockNanos time spent computing the decision
    */
  final case class Decision(allocation: QueueingModel.Allocation,
                            assignment: Option[Assignment],
                            phiUsed: Double,
                            wallClockNanos: Long) {
    def wallClockMillis: Double = wallClockNanos / 1e6
  }

  /** Compute a new scheduling decision from instantaneous measurements.
    *
    * @param loads        measured (λ_j, μ_j) per executor
    * @param execs        executor placement/state/data-intensity info
    * @param prev         the currently installed assignment X̃
    * @param nodeCapacity c_i cores per node
    * @param latencyTarget user SLO T_max (seconds)
    * @param phi0         initial data-intensity threshold φ
    */
  def schedule(loads: IndexedSeq[ExecutorLoad],
               execs: IndexedSeq[ExecutorInfo],
               prev: Assignment,
               nodeCapacity: IndexedSeq[Int],
               latencyTarget: Double,
               phi0: Double = CpuAssignment.Phi0): Decision =
    allocateAndAssign(loads, execs, nodeCapacity, latencyTarget)(
      CpuAssignment.assign(_, prev, nodeCapacity, execs, phi0))

  /** naive-EC variant (§5.4): identical queueing-model allocation and clip,
    * but the assignment ignores migration cost and locality entirely.
    */
  def scheduleNaive(loads: IndexedSeq[ExecutorLoad],
                    execs: IndexedSeq[ExecutorInfo],
                    nodeCapacity: IndexedSeq[Int],
                    latencyTarget: Double): Decision =
    allocateAndAssign(loads, execs, nodeCapacity, latencyTarget)(target =>
      (CpuAssignment.assignNaive(target, nodeCapacity, execs), Double.NaN))

  /** Allocate with the queueing model, clip the vector to the cluster, and
    * hand the target to `assigner`, which returns the assignment and the φ
    * it used.
    */
  private def allocateAndAssign(loads: IndexedSeq[ExecutorLoad],
                                execs: IndexedSeq[ExecutorInfo],
                                nodeCapacity: IndexedSeq[Int],
                                latencyTarget: Double)
                               (assigner: IndexedSeq[Int] => (Option[Assignment], Double)): Decision = {
    require(loads.length == execs.length, s"loads ${loads.length} != execs ${execs.length}")
    val t0 = System.nanoTime()
    val totalCores = sum(nodeCapacity)
    val alloc = QueueingModel.allocateCores(loads, latencyTarget, totalCores)
    // Clip to capacity when the minimum-stability demand exceeds the
    // cluster: shed proportionally so the assignment step stays feasible.
    val k = alloc.cores
    val demand = sum(k)
    val target =
      if (demand <= totalCores) k
      else {
        val out = new Array[Int](k.length)
        var left = totalCores
        var j = 0
        while (j < out.length) {
          out(j) = math.max(1, (k(j).toLong * totalCores / demand).toInt)
          left -= out(j)
          j += 1
        }
        // Rounding can leave headroom; hand leftovers to the largest asks.
        if (left > 0) {
          val order = leftoverOrder(k, out)
          var idx = 0
          while (left > 0 && idx < order.length) { out(order(idx)) += 1; left -= 1; idx += 1 }
        }
        ArraySeq.unsafeWrapArray(out)
      }
    val (assignment, phiUsed) = assigner(target)
    Decision(alloc, assignment, phiUsed, System.nanoTime() - t0)
  }

  /** `xs.sum` without boxing: the same Int, overflow included. */
  private[core] def sum(xs: IndexedSeq[Int]): Int = {
    var total = 0
    var j = 0
    while (j < xs.length) { total += xs(j); j += 1 }
    total
  }

  /** Executors in descending order of the cores the clip took from them,
    * k_j − scaled_j, ties by index: the order of a stable
    * `indices.sortBy(j => -(k(j) - scaled(j)))`, as one primitive sort of
    * (scaled_j − k_j, j) packed into longs.
    */
  private[core] def leftoverOrder(k: IndexedSeq[Int], scaled: Array[Int]): Array[Int] = {
    val packed = new Array[Long](scaled.length)
    var j = 0
    while (j < packed.length) { packed(j) = (scaled(j) - k(j)).toLong << 32 | j; j += 1 }
    java.util.Arrays.sort(packed)
    val order = new Array[Int](packed.length)
    j = 0
    while (j < order.length) { order(j) = packed(j).toInt; j += 1 }
    order
  }
}
