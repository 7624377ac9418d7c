package repro.core

import scala.collection.immutable.ArraySeq

/** CPU-to-executor assignment (§4.2, Algorithm 1).
  *
  * Given a per-executor core allocation **k** from the queueing model, map
  * physical cores (node-granular) to executors so that state-migration cost
  * during the transition is minimal and data-intensive executors keep all
  * their cores on their local node (computation-locality constraint).
  *
  * The exact problem is NP-hard (reduces to multiprocessor scheduling); the
  * paper's greedy moves one core at a time, always the move with the
  * smallest overhead:
  *   C⁺_ij(X) = s_j (X_j − x_ij) / (X_j (X_j + 1))   (grant j a core of node i)
  *   C⁻_ij(X) = s_j (X_j − x_ij) / (X_j (X_j − 1))   (release one of j's cores on i)
  * It runs in two passes. First each executor above its target releases
  * cores at minimum C⁻ until it is at its target. Then the executors below
  * target, in descending data intensity, are granted free cores at minimum
  * C⁺; one whose intensity exceeds φ takes cores on its local node only.
  * The paper's steal move (C⁻ + C⁺: take a core from an over-provisioned
  * executor and grant it) is subsumed by the shrink pass: once it has run,
  * no executor is over-provisioned and every core a steal could take is
  * already free. If an executor cannot be granted a core the grow pass
  * FAILs, and `assign` doubles φ and retries. The shrink pass does not
  * depend on φ, so retries repeat only the grow pass, on the same copy of
  * X̃: a FAIL undoes its grants in place. Cost per decision, n nodes and m
  * executors: one O(n·m) copy of X̃, then O(Σ_j |Δk_j|·n) per attempt.
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
    def totalOf(j: Int): Int = {
      var total = 0
      var i = 0
      while (i < cores.length) { total += cores(i)(j); i += 1 }
      total
    }
    /** Cores used on node i. */
    def usedOn(i: Int): Int = {
      val row = cores(i)
      var used = 0
      var j = 0
      while (j < row.length) { used += row(j); j += 1 }
      used
    }
    /** Transition cost C(X|X̃): Σ_j Σ_i max(0, s_j x̃_ij/X̃_j − s_j x_ij/X_j),
      * i.e. the state bytes each executor moves *out of* each node.
      */
    def migrationCostFrom(prev: Assignment, execs: IndexedSeq[ExecutorInfo]): Double = {
      var cost = 0.0
      var j = 0
      while (j < numExecutors) {
        val oldTotal = prev.totalOf(j)
        val newTotal = totalOf(j)
        if (oldTotal > 0 && newTotal > 0) {
          val s = execs(j).stateBytes
          var i = 0
          while (i < numNodes) {
            val before = s * prev.cores(i)(j) / oldTotal
            val after = s * cores(i)(j) / newTotal
            cost += math.max(0.0, before - after)
            i += 1
          }
        }
        j += 1
      }
      cost
    }
  }

  object Assignment {
    /** Paper's deployment default: each executor starts with one core on
      * its (round-robin chosen) local node.
      */
    def oneCoreLocal(execs: IndexedSeq[ExecutorInfo], numNodes: Int, coresPerNode: Int): Assignment = {
      val rows = new Array[Array[Int]](numNodes)
      var i = 0
      while (i < numNodes) { rows(i) = new Array[Int](execs.length); i += 1 }
      val used = new Array[Int](numNodes)
      var j = 0
      while (j < execs.length) {
        val node = execs(j).localNode
        require(node >= 0 && node < numNodes, s"executor $j local node $node out of range")
        require(used(node) < coresPerNode,
          s"node $node over capacity placing executor $j (${used(node)} of $coresPerNode)")
        rows(node)(j) = 1
        used(node) += 1
        j += 1
      }
      ofRows(rows)
    }

    /** The assignment whose row i is `rows(i)`, wrapped without copying:
      * the caller hands the arrays over and writes none of them again.
      */
    def ofRows(rows: Array[Array[Int]]): Assignment = {
      val wrapped = new Array[IndexedSeq[Int]](rows.length)
      var i = 0
      while (i < rows.length) { wrapped(i) = ArraySeq.unsafeWrapArray(rows(i)); i += 1 }
      Assignment(ArraySeq.unsafeWrapArray(wrapped))
    }
  }

  /** The paper's initial data-intensity threshold φ (§4.2), bytes/s. */
  val Phi0: Double = 512.0 * 1024

  /** C⁺, defined as 0 for an executor with no core (X_j = 0, where the
    * formula is 0/0): it holds no state on any node, so none moves.
    */
  private def cPlus(s: Double, xj: Int, xij: Int): Double =
    if (xj == 0) 0.0 else s * (xj - xij) / (xj.toDouble * (xj + 1))
  private def cMinus(s: Double, xj: Int, xij: Int): Double =
    if (xj <= 1) Double.PositiveInfinity else s * (xj - xij) / (xj.toDouble * (xj - 1))

  /** The scheduler's assignment step (§4.2): Algorithm 1 at φ = `phi0`,
    * doubling φ on FAIL until feasible. Returns the assignment, or None when
    * no φ makes it feasible (the cluster genuinely lacks capacity), and the
    * φ of the last attempt. Both passes break ties towards the lowest node.
    *
    * @param target  desired core allocation k (per executor)
    * @param prev    existing assignment X̃
    * @param nodeCapacity c_i per node
    * @param execs   per-executor info (local node, state size, intensity)
    * @param phi0    initial data-intensity threshold φ (bytes/s)
    */
  def assign(target: IndexedSeq[Int],
             prev: Assignment,
             nodeCapacity: IndexedSeq[Int],
             execs: IndexedSeq[ExecutorInfo],
             phi0: Double = Phi0): (Option[Assignment], Double) = {
    require(phi0 > 0, s"phi0 must be positive: $phi0")
    val n = nodeCapacity.length
    val m = execs.length
    require(target.length == m, s"target ${target.length} != executors $m")
    val want = new Array[Int](m)
    var negative = false
    var j = 0
    while (j < m) {
      want(j) = target(j)
      if (want(j) < 0) negative = true
      j += 1
    }
    require(!negative, s"negative target: $target")
    require(prev.numNodes == n && prev.numExecutors == m,
      s"prev assignment shape ${prev.numNodes}x${prev.numExecutors} != ${n}x$m")
    // The engine applies decisions whole, so its `prev` never oversubscribes
    // a node. Another caller's may; it is taken as is: only executors above
    // target release cores, so a node whose executors are all at or below
    // target stays oversubscribed in the result; growth adds nothing there.

    // While loops throughout: the in-sim scheduler runs mostly before the
    // JIT has compiled it, where closures and boxing cost the most.
    val x = new Array[Array[Int]](n)
    val xTot = new Array[Int](m)
    val usedOn = new Array[Int](n)
    val cap = new Array[Int](n)
    var i = 0
    while (i < n) {
      cap(i) = nodeCapacity(i)
      val src = prev.cores(i)
      require(src.length == m, s"prev row $i has ${src.length} entries, expected $m")
      val row = src match {
        case r: ArraySeq.ofInt => r.unsafeArray.clone()
        case _ => val a = new Array[Int](m); src.copyToArray(a); a
      }
      var used = 0
      j = 0
      while (j < m) {
        val c = row(j)
        xTot(j) += c
        used += c
        j += 1
      }
      usedOn(i) = used
      x(i) = row
      i += 1
    }

    // Shrink pass, once: it does not depend on φ.
    j = 0
    while (j < m) {
      val s = execs(j).stateBytes
      while (xTot(j) > want(j)) {
        // Ties go to the lowest node; `compare` orders NaN above +∞.
        var best = -1
        var bestCost = 0.0
        i = 0
        while (i < n) {
          if (x(i)(j) > 0) {
            val c = cMinus(s, xTot(j), x(i)(j))
            if (best < 0 || java.lang.Double.compare(c, bestCost) < 0) { best = i; bestCost = c }
          }
          i += 1
        }
        x(best)(j) -= 1
        xTot(j) -= 1
        usedOn(best) -= 1
      }
      j += 1
    }
    val below = new Array[Int](m)
    var numUnder = 0
    var need = 0L
    j = 0
    while (j < m) {
      if (xTot(j) < want(j)) { below(numUnder) = j; numUnder += 1; need += want(j) - xTot(j) }
      j += 1
    }
    val under = byDescendingIntensity(below.take(numUnder), execs)
    // One grow pass grants at most the missing cores, and at most the free
    // ones: a grant needs a node below capacity and fills one of its cores.
    var free = 0L
    i = 0
    while (i < n) { free += math.max(0, cap(i) - usedOn(i)); i += 1 }
    val grants = new Array[Long](math.min(need, free).toInt) // (node << 32) | executor
    val phiMax = maxIntensity(execs)

    // Grow pass per φ, on the shrunk copy of X̃.
    var phi = phi0
    var attempts = 0
    while (attempts < 64) {
      var granted = 0
      var failed = false
      var u = 0
      while (u < under.length && !failed) {
        val j = under(u)
        val e = execs(j)
        val localOnly = e.dataIntensity > phi
        val lo = if (localOnly) e.localNode else 0
        val hi = if (localOnly) e.localNode else n - 1
        while (xTot(j) < want(j) && !failed) {
          var best = -1
          var bestCost = Double.PositiveInfinity
          var i = lo
          while (i <= hi) {
            if (usedOn(i) < cap(i)) {
              val c = cPlus(e.stateBytes, xTot(j), x(i)(j))
              if (c < bestCost) { bestCost = c; best = i }
            }
            i += 1
          }
          if (best < 0) failed = true
          else {
            x(best)(j) += 1
            xTot(j) += 1
            usedOn(best) += 1
            grants(granted) = best.toLong << 32 | j
            granted += 1
          }
        }
        u += 1
      }
      if (!failed) return (Some(Assignment.ofRows(x)), phi)
      if (phi > phiMax) return (None, phi) // constraint-free and still infeasible
      // FAIL: undo this attempt's grants, so the next φ starts from the shrunk X̃.
      while (granted > 0) {
        granted -= 1
        val bi = (grants(granted) >>> 32).toInt
        val bj = grants(granted).toInt
        x(bi)(bj) -= 1
        xTot(bj) -= 1
        usedOn(bi) -= 1
      }
      phi *= 2
      attempts += 1
    }
    (None, phi)
  }

  /** The largest data intensity, 0 when there are no executors: the value of
    * `execs.map(_.dataIntensity).max` (`Ordering.Double.TotalOrdering`, so
    * NaN above +∞ and +0.0 above −0.0) without boxing.
    */
  private[core] def maxIntensity(execs: IndexedSeq[ExecutorInfo]): Double = {
    if (execs.isEmpty) return 0.0
    var max = execs(0).dataIntensity
    var j = 1
    while (j < execs.length) {
      val d = execs(j).dataIntensity
      if (java.lang.Double.compare(d, max) > 0) max = d
      j += 1
    }
    max
  }

  /** `js`, ascending, reordered by descending data intensity with ties by
    * index, in place: the order of a stable `sortBy(j => -dataIntensity(j))`
    * without boxing. Each key is ranked among the sorted keys, and the
    * (rank, j) pairs, packed into longs, are sorted. `Arrays` sorts and
    * searches doubles in `Double.compare`'s order, which is `sortBy`'s.
    */
  private def byDescendingIntensity(js: Array[Int], execs: IndexedSeq[ExecutorInfo]): Array[Int] = {
    val keys = new Array[Double](js.length)
    var u = 0
    while (u < js.length) { keys(u) = -execs(js(u)).dataIntensity; u += 1 }
    val sorted = keys.clone()
    java.util.Arrays.sort(sorted)
    val packed = new Array[Long](js.length)
    u = 0
    while (u < js.length) {
      packed(u) = java.util.Arrays.binarySearch(sorted, keys(u)).toLong << 32 | js(u)
      u += 1
    }
    java.util.Arrays.sort(packed)
    u = 0
    while (u < js.length) { js(u) = packed(u).toInt; u += 1 }
    js
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
    Some(Assignment.ofRows(x))
  }
}
