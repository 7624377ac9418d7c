package repro.core

/** Two-tier routing for the executor-centric paradigm (§3.1–3.2).
  *
  * Tier 1 is static: a hash function partitions the operator's key space
  * across executors, and each executor's key subspace across its `z` shards.
  * Tier 2 is dynamic: each executor's shard→task map, which only its shard
  * reassignments change (`repro.sim.ExecutorRuntime`).
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
