package repro.core

import repro.core.CpuAssignment.{Assignment, ExecutorInfo}

/** Reference Algorithm 1: the direct transcription that scans every
  * over-provisioned executor on every allowed node as a steal victim for
  * each granted core, O(Δk·n·m). `CpuAssignmentSpec` checks that
  * `CpuAssignment` returns exactly what this returns, tie-breaking included.
  */
object CpuAssignmentReference {

  private def cPlus(s: Double, xj: Int, xij: Int): Double =
    if (xj == 0) 0.0 else s * (xj - xij) / (xj.toDouble * (xj + 1))
  private def cMinus(s: Double, xj: Int, xij: Int): Double =
    if (xj <= 1) Double.PositiveInfinity else s * (xj - xij) / (xj.toDouble * (xj - 1))

  /** One run of Algorithm 1 at a fixed φ; None is FAIL. */
  def assignAt(target: IndexedSeq[Int],
               prev: Assignment,
               nodeCapacity: IndexedSeq[Int],
               execs: IndexedSeq[ExecutorInfo],
               phi: Double): Option[Assignment] = {
    val n = nodeCapacity.length
    val m = execs.length
    require(target.length == m, s"target ${target.length} != executors $m")
    require(prev.numNodes == n && prev.numExecutors == m,
      s"prev assignment shape ${prev.numNodes}x${prev.numExecutors} != ${n}x$m")
    val x = Array.tabulate(n, m)((i, j) => prev.cores(i)(j))
    val xTot = Array.tabulate(m)(j => (0 until n).map(x(_)(j)).sum)
    val usedOn = Array.tabulate(n)(i => x(i).sum)

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
        if (bestNode < 0) return None
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
    Some(Assignment(x.map(_.toIndexedSeq).toIndexedSeq))
  }

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
      assignAt(target, prev, nodeCapacity, execs, phi) match {
        case Some(a) => return (Some(a), phi)
        case None =>
          if (phi > maxIntensity) return (None, phi) // constraint-free and still infeasible
          phi *= 2
          attempts += 1
      }
    }
    (None, phi)
  }

  /** X̃₀ as `Assignment.oneCoreLocal` built it cell by cell through Scala's
    * generic arrays, with the same checks and messages.
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
