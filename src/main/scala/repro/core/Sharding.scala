package repro.core

/** Two-tier routing for the executor-centric paradigm (§3.1–3.2).
  *
  * Tier 1 is static: a hash function partitions the operator's key space
  * across executors, and each executor's key subspace across its `z` shards.
  * Tier 2 is dynamic: an explicit shard→task map, updated by the
  * intra-executor load balancer on shard reassignments.
  */
object Sharding {

  /** Deterministic 64-bit avalanche hash (splitmix64 finalizer). Plain
    * `Long.hashCode` would map consecutive keys to consecutive buckets,
    * which under-represents hash collisions of hot keys — the very effect
    * the shard-count trade-off (§3.1) is about.
    */
  def hash(key: Long): Long = {
    var z = key + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  private def mod(h: Long, n: Int): Int = {
    val m = (h % n).toInt
    if (m < 0) m + n else m
  }

  /** Static key→executor partition (tier-1, operator level). */
  def executorOf(key: Long, numExecutors: Int): Int = {
    require(numExecutors > 0, s"numExecutors must be positive: $numExecutors")
    mod(hash(key), numExecutors)
  }

  /** Static key→shard partition within one executor (tier-1, executor
    * level). Shard ids are executor-local, in `[0, shardsPerExecutor)`.
    * A second hash round decorrelates the shard choice from the executor
    * choice so hot keys don't pile onto the same shard index everywhere.
    */
  def shardOf(key: Long, shardsPerExecutor: Int): Int = {
    require(shardsPerExecutor > 0, s"shardsPerExecutor must be positive: $shardsPerExecutor")
    mod(hash(hash(key)), shardsPerExecutor)
  }

  /** Global shard id across an operator: executor-major layout. */
  def globalShardOf(key: Long, numExecutors: Int, shardsPerExecutor: Int): Int =
    executorOf(key, numExecutors) * shardsPerExecutor + shardOf(key, shardsPerExecutor)
}

/** Mutable tier-2 routing table: shard → task. One instance per elastic
  * executor; the receiver daemon consults it for every incoming tuple.
  *
  * @param numShards shards in this executor (the paper's `z`)
  */
final class ShardMap(val numShards: Int, initialTasks: Int) {
  require(numShards > 0, s"numShards must be positive: $numShards")
  require(initialTasks > 0, s"initialTasks must be positive: $initialTasks")

  private val assignment = Array.tabulate(numShards)(_ % initialTasks)

  /** Task currently responsible for `shard`. */
  def taskOf(shard: Int): Int = assignment(shard)

  /** Reassign one shard (the routing-table update step of §3.3). */
  def reassign(shard: Int, toTask: Int): Unit = assignment(shard) = toTask

  /** Snapshot of the full shard→task vector. */
  def snapshot: IndexedSeq[Int] = assignment.toIndexedSeq

  /** Replace the entire mapping (used when tasks are added/removed). */
  def replaceAll(newAssignment: IndexedSeq[Int]): Unit = {
    require(newAssignment.length == numShards,
      s"assignment length ${newAssignment.length} != numShards $numShards")
    var i = 0
    while (i < numShards) { assignment(i) = newAssignment(i); i += 1 }
  }
}
