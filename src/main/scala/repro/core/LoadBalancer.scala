package repro.core

/** Intra-executor load balancing (§3.1).
  *
  * Refines the shard→task assignment in rounds until the imbalance factor
  * δ = (max task workload) / (mean task workload) drops below θ (`Theta`:
  * at most 20% above the mean). Each round considers moving one
  * shard from the most-loaded task to the least-loaded task and picks the
  * move that reduces δ the most — a First-Fit-Decreasing-flavoured greedy
  * for the NP-hard multi-way partitioning problem. Minimising the number of
  * moved shards minimises state-migration cost. When an executor loses
  * tasks, [[evacuate]] first moves their shards onto the survivors; the
  * rounds then refine that map like any other.
  */
object LoadBalancer {

  /** The paper's imbalance threshold θ (§3.1). */
  val Theta: Double = 1.2

  /** One shard reassignment: shard id, source task, destination task. */
  final case class Move(shard: Int, fromTask: Int, toTask: Int)

  /** Result: the refined assignment and the ordered list of moves that
    * produced it (each move costs one consistent-reassignment protocol run).
    */
  final case class Rebalance(assignment: IndexedSeq[Int], moves: List[Move], imbalance: Double)

  /** δ of an assignment under per-shard workloads; 1.0 is perfect balance.
    * Defined as max/mean over tasks. Zero total workload balances trivially.
    */
  def imbalance(shardLoad: IndexedSeq[Double], assignment: IndexedSeq[Int], numTasks: Int): Double = {
    require(numTasks > 0, s"numTasks must be positive: $numTasks")
    val perTask = taskLoads(shardLoad, assignment, numTasks)
    val total = perTask.sum
    if (total <= 0) 1.0 else perTask.max / (total / numTasks)
  }

  /** Per-task aggregate workload under an assignment. */
  def taskLoads(shardLoad: IndexedSeq[Double], assignment: IndexedSeq[Int], numTasks: Int): Array[Double] = {
    require(shardLoad.length == assignment.length,
      s"shardLoad ${shardLoad.length} != assignment ${assignment.length}")
    val acc = new Array[Double](numTasks)
    var i = 0
    while (i < shardLoad.length) {
      val t = assignment(i)
      require(t >= 0 && t < numTasks, s"shard $i assigned to invalid task $t of $numTasks")
      acc(t) += shardLoad(i)
      i += 1
    }
    acc
  }

  /** Greedy rebalancing rounds (§3.1).
    *
    * @param shardLoad  measured workload per shard (e.g. CPU-µs/s)
    * @param assignment current shard→task map
    * @param numTasks   task count after any add/remove
    * @param theta      imbalance threshold θ
    */
  def rebalance(shardLoad: IndexedSeq[Double],
                assignment: IndexedSeq[Int],
                numTasks: Int,
                theta: Double = Theta): Rebalance = {
    require(theta >= 1.0, s"theta must be >= 1: $theta")
    val assign = assignment.toArray
    val loads = taskLoads(shardLoad, assign.toIndexedSeq, numTasks)
    val total = loads.sum
    val mean = total / numTasks
    var moves = List.empty[Move]

    def delta: Double = if (total <= 0) 1.0 else loads.max / mean

    var guard = 0
    while (delta > theta && guard < shardLoad.length) {
      val maxTask = loads.indices.maxBy(loads)
      val minTask = loads.indices.minBy(loads)
      // Among shards on the most-loaded task, pick the move that minimises
      // the post-move δ: the shard whose load best fills the gap without
      // overshooting — equivalently minimise max(newMax, minLoad + w).
      var bestShard = -1
      var bestPeak = Double.PositiveInfinity
      var i = 0
      while (i < assign.length) {
        if (assign(i) == maxTask && shardLoad(i) > 0) {
          val newSrc = loads(maxTask) - shardLoad(i)
          val newDst = loads(minTask) + shardLoad(i)
          // Peak across the two affected tasks; other tasks are unchanged
          // and all ≤ loads(maxTask), so only improving moves are taken.
          val peak = math.max(newSrc, newDst)
          if (peak < bestPeak) { bestPeak = peak; bestShard = i }
        }
        i += 1
      }
      if (bestShard < 0 || bestPeak >= loads(maxTask)) {
        // No single-shard move improves the peak (e.g. one hot shard
        // dominates): converged as far as this granularity allows.
        return Rebalance(assign.toIndexedSeq, moves.reverse, delta)
      }
      loads(maxTask) -= shardLoad(bestShard)
      loads(minTask) += shardLoad(bestShard)
      moves ::= Move(bestShard, maxTask, minTask)
      assign(bestShard) = minTask
      guard += 1
    }
    Rebalance(assign.toIndexedSeq, moves.reverse, delta)
  }

  /** Collapse a move sequence so each shard appears at most once: first
    * source → final destination. A shard the greedy bounced back to its
    * original task drops out entirely. Each surviving entry costs exactly
    * one consistent-reassignment protocol run.
    */
  def collapse(moves: List[Move]): List[Move] = {
    val first = scala.collection.mutable.LinkedHashMap.empty[Int, Int]
    val last = scala.collection.mutable.HashMap.empty[Int, Int]
    moves.foreach { m =>
      if (!first.contains(m.shard)) first(m.shard) = m.fromTask
      last(m.shard) = m.toTask
    }
    first.iterator
      .map { case (s, f) => Move(s, f, last(s)) }
      .filter(m => m.fromTask != m.toTask)
      .toList
  }

  /** The forced moves of a task-count change (§3 "CPU core reassignments"):
    * every shard on a removed task (index `>= numTasks`) moves to a
    * survivor, biggest shard first (FFD), each onto the survivor that is
    * least loaded at that point. Shards on survivors stay put, so only
    * the removed tasks' state moves; the caller then refines the result
    * with [[rebalance]].
    */
  def evacuate(shardLoad: IndexedSeq[Double], assignment: IndexedSeq[Int], numTasks: Int): List[Move] = {
    require(numTasks > 0, s"numTasks must be positive: $numTasks")
    require(shardLoad.length == assignment.length,
      s"shardLoad ${shardLoad.length} != assignment ${assignment.length}")
    val survivorLoads = new Array[Double](numTasks)
    for (i <- assignment.indices if assignment(i) < numTasks) survivorLoads(assignment(i)) += shardLoad(i)
    val orphans = assignment.indices.filter(assignment(_) >= numTasks).sortBy(i => -shardLoad(i))
    orphans.toList.map { i =>
      val dst = (0 until numTasks).minBy(survivorLoads)
      survivorLoads(dst) += shardLoad(i)
      Move(i, assignment(i), dst)
    }
  }
}
