package repro.workload

import repro.sim.{KeyFrequencies, OperatorSpec, Workload}

/** The §5.1 micro-benchmark (Fig. 5 topology: spout → calculator → sink).
  *
  * Defaults are the paper's: 10 K distinct keys, zipf skew 0.5, 128-byte
  * tuples, 1 ms CPU per tuple, 32 KB shard state, ω random key-frequency
  * permutations per minute. The sink is a near-free pass-through operator so
  * the calculator dominates, as in the paper.
  *
  * @param offeredRate    spout emission rate, tuples/s
  * @param shufflesPerMin workload dynamics ω
  * @param tupleBytes     calculator input tuple size (s in §5.3)
  * @param shardStateBytes per-shard state size
  * @param spoutExecutors upstream executor count (Fig. 9a varies this)
  */
final class MicroBenchWorkload(offeredRate: Double,
                               shufflesPerMin: Double,
                               tupleBytes: Double = 128.0,
                               shardStateBytes: Double = 32.0 * 1024,
                               spoutExecutors: Int = 32,
                               numKeys: Int = 10000,
                               zipfSkew: Double = 0.5,
                               seed: Long = 42) extends Workload {
  require(offeredRate > 0, s"offeredRate must be positive: $offeredRate")
  require(shufflesPerMin >= 0, s"shufflesPerMin must be >= 0: $shufflesPerMin")

  val calculator: OperatorSpec = OperatorSpec(
    name = "calculator",
    cpuSecPerTuple = MicroBenchWorkload.CalculatorCostSec,
    tupleBytes = tupleBytes,
    outBytes = tupleBytes,
    statePerShardBytes = shardStateBytes,
    downstream = Seq("sink" -> 1.0))

  val sink: OperatorSpec = OperatorSpec(
    name = "sink",
    cpuSecPerTuple = 1e-6,
    tupleBytes = tupleBytes,
    outBytes = 0.0,
    statePerShardBytes = 0.0)

  override val operators: IndexedSeq[OperatorSpec] = IndexedSeq(calculator, sink)
  override val throughputOp: String = "calculator"
  override val upstreamExecutorCount: Int = spoutExecutors

  private val freqs = new KeyFrequencies(numKeys, zipfSkew, seed)
  private var nextShuffleSec: Double =
    if (shufflesPerMin > 0) 60.0 / shufflesPerMin else Double.PositiveInfinity

  override def externalRate(op: String, timeSec: Double): Double =
    if (op == "calculator") offeredRate else 0.0

  override def advanceTo(timeSec: Double): Boolean = {
    var changed = false
    while (timeSec >= nextShuffleSec) {
      freqs.shuffle()
      nextShuffleSec += 60.0 / shufflesPerMin
      changed = true
    }
    changed
  }

  override def shardWeights(op: String, numExecutors: Int, shardsPerExecutor: Int): Array[Double] =
    op match {
      // The sink is keyed the same way as the calculator.
      case "calculator" | "sink" => freqs.shardWeights(numExecutors, shardsPerExecutor)
      case other => throw new IllegalArgumentException(s"unknown op $other")
    }
}

object MicroBenchWorkload {
  /** The calculator's CPU cost per tuple (§5.1). */
  val CalculatorCostSec = 1e-3
}
