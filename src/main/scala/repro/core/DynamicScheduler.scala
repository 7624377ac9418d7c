package repro.core

import repro.core.CpuAssignment.{Assignment, ExecutorInfo}
import repro.core.QueueingModel.ExecutorLoad

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
    val totalCores = nodeCapacity.sum
    val alloc = QueueingModel.allocateCores(loads, latencyTarget, totalCores)
    // Clip to capacity when the minimum-stability demand exceeds the
    // cluster: shed proportionally so the assignment step stays feasible.
    val demand = alloc.cores.sum
    val target =
      if (demand <= totalCores) alloc.cores
      else {
        val scaled = alloc.cores.map(k => math.max(1, (k.toLong * totalCores / demand).toInt))
        // Rounding can leave headroom; hand leftovers to the largest asks.
        var left = totalCores - scaled.sum
        val order = alloc.cores.indices.sortBy(j => -(alloc.cores(j) - scaled(j)))
        val out = scaled.toArray
        var idx = 0
        while (left > 0 && idx < order.length) { out(order(idx)) += 1; left -= 1; idx += 1 }
        out.toIndexedSeq
      }
    val (assignment, phiUsed) = assigner(target)
    Decision(alloc, assignment, phiUsed, System.nanoTime() - t0)
  }
}
