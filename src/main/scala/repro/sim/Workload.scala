package repro.sim

import repro.core.Sharding

/** One operator of the simulated topology.
  *
  * @param name            unique operator name
  * @param cpuSecPerTuple  mean CPU cost to process one input tuple
  * @param tupleBytes      input tuple size (wire size into the operator)
  * @param outBytes        output tuple size (wire size out of the operator)
  * @param statePerShardBytes state held per shard (migrated on reassignment)
  * @param downstream      (operator, selectivity): tuples emitted to each
  *                        downstream operator per processed input tuple
  */
final case class OperatorSpec(name: String,
                              cpuSecPerTuple: Double,
                              tupleBytes: Double,
                              outBytes: Double,
                              statePerShardBytes: Double,
                              downstream: Seq[(String, Double)] = Nil) {
  require(cpuSecPerTuple > 0, s"cpuSecPerTuple must be positive: $cpuSecPerTuple")
  require(tupleBytes >= 0 && outBytes >= 0, "tuple sizes must be >= 0")
  require(statePerShardBytes >= 0, "state size must be >= 0")
}

/** A dynamic keyed workload driving the simulator.
  *
  * Implementations own the key-frequency state per operator and mutate it at
  * workload events (the micro-benchmark's ω random permutations per minute,
  * the SSE trace's bursty per-stock rate regimes).
  */
trait Workload {

  /** Topology operators, dataflow order (upstream before downstream). */
  def operators: IndexedSeq[OperatorSpec]

  /** Operator whose completions define system throughput (the entry
    * operator fed by the external stream).
    */
  def throughputOp: String

  /** External arrival rate (tuples/s) into `op` at simulated time `t`. */
  def externalRate(op: String, timeSec: Double): Double

  /** Number of upstream (spout) executors feeding the entry operator —
    * determines the RC synchronization barrier width (Fig. 9a).
    */
  def upstreamExecutorCount: Int

  /** Advance workload-internal state to `timeSec`; returns true when the key
    * distribution changed (a "shuffle"), so the engine re-derives rates.
    */
  def advanceTo(timeSec: Double): Boolean

  /** Current weight of each global shard of `op` (sums to 1) under the
    * two-tier partitioning with `numExecutors` × `shardsPerExecutor` shards.
    */
  def shardWeights(op: String, numExecutors: Int, shardsPerExecutor: Int): Array[Double]
}

/** Key-frequency table with zipf initialisation, deterministic random
  * permutations (the micro-benchmark's shuffle) and rate-regime scaling
  * (the SSE generator's bursts).
  *
  * @param numKeys distinct keys in the operator's key space
  * @param zipfSkew zipf exponent (paper micro-benchmark: 0.5)
  * @param seed    RNG seed; everything downstream is deterministic in it
  */
final class KeyFrequencies(val numKeys: Int, zipfSkew: Double, seed: Long) {
  require(numKeys > 0, s"numKeys must be positive: $numKeys")
  private val rng = new scala.util.Random(new UnsharedRandom(seed))

  /** freq(k) ∝ 1/(rank_k)^skew, shuffled so rank is decoupled from key id. */
  private val base: Array[Double] = {
    val raw = Array.tabulate(numKeys)(i => 1.0 / math.pow(i + 1.0, zipfSkew))
    val sum = raw.sum
    raw.map(_ / sum)
  }
  // key -> position in `base` (rank); permuted on shuffle.
  private val rank: Array[Int] = rng.shuffle((0 until numKeys).toVector).toArray
  // multiplicative burst factors on top of the zipf base (SSE regimes).
  private val burst: Array[Double] = Array.fill(numKeys)(1.0)

  /** Normalised frequency of key `k` under the current permutation+bursts. */
  def freq(k: Int): Double = base(rank(k)) * burst(k) / normalizer

  // Shard weights per (numExecutors, shardsPerExecutor) under the current
  // frequencies; emptied whenever they change.
  private val weightsOf = scala.collection.mutable.HashMap.empty[(Int, Int), Array[Double]]

  private var normalizer: Double = 1.0
  private def renormalize(): Unit = {
    var s = 0.0
    var k = 0
    while (k < numKeys) { s += base(rank(k)) * burst(k); k += 1 }
    normalizer = s
    weightsOf.clear()
  }
  renormalize()

  /** The micro-benchmark shuffle: random permutation of key frequencies. */
  def shuffle(): Unit = {
    // Fisher–Yates on the rank array.
    var i = numKeys - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = rank(i); rank(i) = rank(j); rank(j) = t
      i -= 1
    }
    renormalize()
  }

  /** SSE-style regime change: draw a new burst factor per key; a small
    * fraction of keys go hot (×`hotFactor`), the rest stay near 1.
    */
  def newRegime(hotFraction: Double, hotFactor: Double): Unit = {
    require(hotFraction >= 0 && hotFraction <= 1, s"bad hotFraction $hotFraction")
    var k = 0
    while (k < numKeys) {
      burst(k) = if (rng.nextDouble() < hotFraction) hotFactor else 0.5 + rng.nextDouble()
      k += 1
    }
    renormalize()
  }

  // Key → global shard per (numExecutors, shardsPerExecutor) asked for: the
  // hash partition never changes, only the frequencies do.
  private val shardOfKey = scala.collection.mutable.HashMap.empty[(Int, Int), Array[Int]]

  /** Aggregate key frequencies into global-shard weights under the two-tier
    * hash partitioning (key → executor → shard). The sums are kept per
    * (numExecutors, shardsPerExecutor) until the next [[shuffle]] or
    * [[newRegime]]; each call returns a fresh copy.
    */
  def shardWeights(numExecutors: Int, shardsPerExecutor: Int): Array[Double] = {
    val yz = (numExecutors, shardsPerExecutor)
    weightsOf.getOrElseUpdate(yz, {
      val shard = shardOfKey.getOrElseUpdate(yz,
        Array.tabulate(numKeys)(k => Sharding.globalShardOf(k.toLong, numExecutors, shardsPerExecutor)))
      val w = new Array[Double](numExecutors * shardsPerExecutor)
      var k = 0
      while (k < numKeys) {
        w(shard(k)) += freq(k)
        k += 1
      }
      w
    }).clone()
  }
}

/** `java.util.Random`'s generator on a plain `Long`: the same 48-bit linear
  * congruential step, so every draw equals `new java.util.Random(seed)`'s,
  * without the compare-and-swap on an `AtomicLong` that each of its draws
  * pays. `next` and `setSeed` are the extension point `java.util.Random`
  * documents; `nextInt(bound)`, `nextDouble`, `nextGaussian` and
  * `scala.util.Random.shuffle` all draw through `next`.
  *
  * Not thread-safe. Its owner, a workload's [[KeyFrequencies]], is confined
  * to the one thread that runs its simulation.
  */
final class UnsharedRandom(seed: Long) extends java.util.Random(seed) {
  import UnsharedRandom._

  // `java.util.Random`'s constructor calls `setSeed` before this class's
  // initialisers run, so the field has none: one would reset the seed.
  private var s: Long = _

  override def setSeed(seed: Long): Unit = {
    super.setSeed(seed) // drops the cached second `nextGaussian`
    s = (seed ^ Multiplier) & Mask
  }

  override protected def next(bits: Int): Int = {
    s = (s * Multiplier + Addend) & Mask
    (s >>> (48 - bits)).toInt
  }
}

object UnsharedRandom {
  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
}
