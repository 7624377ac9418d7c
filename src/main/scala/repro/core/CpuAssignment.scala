package repro.core

/** CPU-to-executor assignment (§4.2, Algorithm 1).
  *
  * Given a per-executor core allocation **k** from the queueing model, map
  * physical cores (node-granular) to executors so that state-migration cost
  * during the transition is minimal and data-intensive executors keep all
  * their cores on their local node (computation-locality constraint).
  *
  * The exact problem is NP-hard (reduces to multiprocessor scheduling); the
  * paper's greedy takes cores from over-provisioned executors one at a time,
  * always choosing the reassignment with the smallest
  * deallocation(+allocation) overhead:
  *   C⁺_ij(X) = s_j (X_j − x_ij) / (X_j (X_j + 1))
  *   C⁻_ij(X) = s_j (X_j − x_ij) / (X_j (X_j − 1))
  * If no feasible move exists the algorithm FAILs and the caller doubles the
  * data-intensity threshold φ and retries.
  */
object CpuAssignment {

  /** Static description of one executor as seen by the assigner.
    *
    * @param localNode     node hosting the executor's main process, I(j)
    * @param stateBytes    aggregate state size s_j
    * @param dataIntensity per-core (input+output) data rate, bytes/s
    */
  final case class ExecutorInfo(localNode: Int, stateBytes: Double, dataIntensity: Double)

  /** An assignment matrix: `cores(i)(j)` = cores of node `i` given to
    * executor `j`. Immutable view returned to callers.
    */
  final case class Assignment(cores: IndexedSeq[IndexedSeq[Int]]) {
    def numNodes: Int = cores.length
    def numExecutors: Int = if (cores.isEmpty) 0 else cores.head.length
    /** X_j: total cores of executor j. */
    def totalOf(j: Int): Int = cores.map(_(j)).sum
    /** Cores used on node i. */
    def usedOn(i: Int): Int = cores(i).sum
    /** Transition cost C(X|X̃): Σ_j Σ_i max(0, s_j x̃_ij/X̃_j − s_j x_ij/X_j),
      * i.e. the state bytes each executor moves *out of* each node.
      */
    def migrationCostFrom(prev: Assignment, execs: IndexedSeq[ExecutorInfo]): Double = {
      var cost = 0.0
      for (j <- 0 until numExecutors) {
        val oldTotal = prev.totalOf(j)
        val newTotal = totalOf(j)
        if (oldTotal > 0 && newTotal > 0) {
          for (i <- 0 until numNodes) {
            val before = execs(j).stateBytes * prev.cores(i)(j) / oldTotal
            val after = execs(j).stateBytes * cores(i)(j) / newTotal
            cost += math.max(0.0, before - after)
          }
        }
      }
      cost
    }
  }

  object Assignment {
    /** Paper's deployment default: each executor starts with one core on
      * its (round-robin chosen) local node.
      */
    def oneCoreLocal(execs: IndexedSeq[ExecutorInfo], numNodes: Int, coresPerNode: Int): Assignment = {
      val m = Array.fill(numNodes, execs.length)(0)
      val used = Array.fill(numNodes)(0)
      for (j <- execs.indices) {
        val i = execs(j).localNode
        require(i >= 0 && i < numNodes, s"executor $j local node $i out of range")
        require(used(i) < coresPerNode,
          s"node $i over capacity placing executor $j (${used(i)} of $coresPerNode)")
        m(i)(j) += 1
        used(i) += 1
      }
      Assignment(m.map(_.toIndexedSeq).toIndexedSeq)
    }
  }

  /** Outcome of one Algorithm-1 run at a fixed φ. */
  sealed trait Result
  final case class Success(assignment: Assignment) extends Result
  case object Fail extends Result

  private def cPlus(s: Double, xj: Int, xij: Int): Double =
    s * (xj - xij) / (xj.toDouble * (xj + 1))
  private def cMinus(s: Double, xj: Int, xij: Int): Double =
    if (xj <= 1) Double.PositiveInfinity else s * (xj - xij) / (xj.toDouble * (xj - 1))

  /** One run of Algorithm 1 at a fixed data-intensity threshold `phi`.
    *
    * @param target  desired core allocation k (per executor)
    * @param prev    existing assignment X̃
    * @param nodeCapacity c_i per node
    * @param execs   per-executor info (local node, state size, intensity)
    * @param phi     data-intensity threshold φ (bytes/s)
    */
  def assignOnce(target: IndexedSeq[Int],
                 prev: Assignment,
                 nodeCapacity: IndexedSeq[Int],
                 execs: IndexedSeq[ExecutorInfo],
                 phi: Double): Result = {
    val n = nodeCapacity.length
    val m = execs.length
    require(target.length == m, s"target ${target.length} != executors $m")
    require(prev.numNodes == n && prev.numExecutors == m,
      s"prev assignment shape ${prev.numNodes}x${prev.numExecutors} != ${n}x$m")
    val x = Array.tabulate(n, m)((i, j) => prev.cores(i)(j))
    val xTot = Array.tabulate(m)(j => (0 until n).map(x(_)(j)).sum)
    val usedOn = Array.tabulate(n)(i => x(i).sum)
    // `prev` may transiently oversubscribe a node (the runtime defers
    // applying a shrink while shard moves are in flight); the shrink pass
    // below works it off rather than rejecting the input.

    def isIntensive(j: Int): Boolean = execs(j).dataIntensity > phi
    def over(j: Int): Boolean = xTot(j) > target(j)

    // Shrink-before-grow: release cores of over-provisioned executors first
    // (cheapest C⁻ per core) so growth below can use them as free capacity.
    for (j <- 0 until m) {
      while (xTot(j) > target(j)) {
        val i = (0 until n).filter(x(_)(j) > 0)
          .minBy(i => cMinus(execs(j).stateBytes, xTot(j), x(i)(j)))
        x(i)(j) -= 1
        xTot(j) -= 1
        usedOn(i) -= 1
      }
    }

    val under = (0 until m).filter(j => xTot(j) < target(j))
      .sortBy(j => -execs(j).dataIntensity)

    for (j <- under) {
      while (xTot(j) < target(j)) {
        val allowedNodes: Range =
          if (isIntensive(j)) execs(j).localNode to execs(j).localNode else 0 until n
        // A free core costs only the allocation side; taking from an
        // over-provisioned executor costs C⁻ + C⁺.
        var bestCost = Double.PositiveInfinity
        var bestNode = -1
        var bestVictim = -1 // -1 means free core
        for (i <- allowedNodes) {
          if (usedOn(i) < nodeCapacity(i)) {
            val c = cPlus(execs(j).stateBytes, xTot(j), x(i)(j))
            if (c < bestCost) { bestCost = c; bestNode = i; bestVictim = -1 }
          }
          for (v <- 0 until m) {
            if (v != j && over(v) && x(i)(v) > 0) {
              // A data-intensive victim must keep its cores local: never
              // steal from an intensive executor on its own local node
              // (that would break the locality constraint we just enforced).
              val victimMovable = !isIntensive(v) || i != execs(v).localNode || xTot(v) - 1 >= 1
              if (victimMovable) {
                val c = cMinus(execs(v).stateBytes, xTot(v), x(i)(v)) +
                  cPlus(execs(j).stateBytes, xTot(j), x(i)(j))
                if (c < bestCost) { bestCost = c; bestNode = i; bestVictim = v }
              }
            }
          }
        }
        if (bestNode < 0) return Fail
        if (bestVictim >= 0) {
          x(bestNode)(bestVictim) -= 1
          xTot(bestVictim) -= 1
          usedOn(bestNode) -= 1
        }
        x(bestNode)(j) += 1
        xTot(j) += 1
        usedOn(bestNode) += 1
      }
    }
    Success(Assignment(x.map(_.toIndexedSeq).toIndexedSeq))
  }

  /** Full scheduler assignment step: run Algorithm 1 at φ = `phi0`
    * (512 KB/s paper default) and double φ on FAIL until feasible (§4.2).
    * Infeasibility with an empty data-intensive set means the cluster
    * genuinely lacks capacity; that is reported as None.
    */
  def assign(target: IndexedSeq[Int],
             prev: Assignment,
             nodeCapacity: IndexedSeq[Int],
             execs: IndexedSeq[ExecutorInfo],
             phi0: Double = 512.0 * 1024): (Option[Assignment], Double) = {
    require(phi0 > 0, s"phi0 must be positive: $phi0")
    var phi = phi0
    val maxIntensity = if (execs.isEmpty) 0.0 else execs.map(_.dataIntensity).max
    var attempts = 0
    while (attempts < 64) {
      assignOnce(target, prev, nodeCapacity, execs, phi) match {
        case Success(a) => return (Some(a), phi)
        case Fail =>
          if (phi > maxIntensity) return (None, phi) // constraint-free and still infeasible
          phi *= 2
          attempts += 1
      }
    }
    (None, phi)
  }

  /** The naive-EC assignment (§5.4): same allocation vector **k**, but the
    * migration-cost and locality optimisations are disabled — the scheduler
    * simply produces *a* feasible assignment, from scratch, dealing cores to
    * executors round-robin across nodes with no regard for the existing
    * placement X̃ or for each executor's local node. Every reallocation thus
    * scatters executors and churns placement, reproducing naive-EC's 5–10×
    * higher state-migration and remote-transfer rates (Table 2).
    */
  def assignNaive(target: IndexedSeq[Int],
                  prev: Assignment,
                  nodeCapacity: IndexedSeq[Int],
                  execs: IndexedSeq[ExecutorInfo]): Option[Assignment] = {
    val n = nodeCapacity.length
    val m = execs.length
    require(target.length == m, s"target ${target.length} != executors $m")
    if (target.sum > nodeCapacity.sum) return None
    val x = Array.fill(n, m)(0)
    val usedOn = Array.fill(n)(0)
    var cursor = 0 // global node cursor, advanced per core dealt
    for (j <- 0 until m; _ <- 0 until target(j)) {
      var scanned = 0
      while (usedOn(cursor % n) >= nodeCapacity(cursor % n) && scanned < n) {
        cursor += 1; scanned += 1
      }
      val i = cursor % n
      if (usedOn(i) >= nodeCapacity(i)) return None
      x(i)(j) += 1
      usedOn(i) += 1
      cursor += 1
    }
    Some(Assignment(x.map(_.toIndexedSeq).toIndexedSeq))
  }
}
