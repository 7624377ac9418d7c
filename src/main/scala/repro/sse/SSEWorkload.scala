package repro.sse

import repro.sim.{KeyFrequencies, OperatorSpec, Workload}

/** Simulator workload modelling the SSE application (§5.4, Fig. 14–15).
  *
  * The real trace (anonymised Shanghai Stock Exchange orders, ~8 M records
  * per trading hour) is proprietary; this synthetic equivalent reproduces
  * the two properties the elasticity experiments depend on: *bursty
  * aggregate rate* and *shifting per-stock popularity* (Fig. 15 shows both).
  * Stock popularity is zipf; every `RegimeSec` a new burst regime promotes a
  * random ~2% of stocks to hot (the Fig. 15 spikes) and re-draws the rest.
  *
  * Topology: transactor → 6 statistics + 5 event operators, all keyed by
  * stock id. Per-tuple CPU costs are calibrated against the real bolt
  * implementations (see SSECalibrationSpec): matching a limit order against
  * a resting book plus the per-tuple framework overhead of the paper's
  * Storm prototype is the dominant cost.
  *
  * Stock skew and burst factors are calibrated so the hottest stock stays
  * below one core's service rate (1/TransactorCostSec): stateful stream
  * processing must process a key's tuples in order, so a single stock above
  * that rate would overload *any* paradigm — the real trace respects the
  * same physics (Fig. 15's top stock is a few thousand orders/s).
  *
  * @param offeredRate  mean order arrival rate (orders/s)
  */
final class SSEWorkload(offeredRate: Double,
                        spoutExecutors: Int = 32,
                        seed: Long = 2019) extends Workload {
  import SSEWorkload._
  require(offeredRate > 0, s"offeredRate must be positive: $offeredRate")

  /** 96-byte orders in, 160-byte transaction records out (§5.4). */
  val transactor: OperatorSpec = OperatorSpec(
    name = "transactor",
    cpuSecPerTuple = TransactorCostSec,
    tupleBytes = 96.0,
    outBytes = 160.0,
    statePerShardBytes = 64.0 * 1024, // resting book state per shard
    downstream = (StatsOps ++ EventOps).map(_ -> TxPerOrder))

  private def analyticsOp(name: String, cost: Double): OperatorSpec = OperatorSpec(
    name = name,
    cpuSecPerTuple = cost,
    tupleBytes = 160.0,
    outBytes = 64.0,
    statePerShardBytes = 16.0 * 1024)

  override val operators: IndexedSeq[OperatorSpec] =
    (transactor +: (StatsOps.map(analyticsOp(_, StatsCostSec)) ++
      EventOps.map(analyticsOp(_, EventCostSec)))).toIndexedSeq

  override val throughputOp: String = "transactor"
  override val upstreamExecutorCount: Int = spoutExecutors

  private val freqs = new KeyFrequencies(NumStocks, StockSkew, seed)
  private val rng = new scala.util.Random(seed ^ 0x55EfeedL)

  private var regimeIndex: Long = -1
  private var rateFactor: Double = 1.0

  override def externalRate(op: String, timeSec: Double): Double =
    if (op == "transactor") offeredRate * rateFactor else 0.0

  override def advanceTo(timeSec: Double): Boolean = {
    val idx = (timeSec / RegimeSec).toLong
    if (idx != regimeIndex) {
      regimeIndex = idx
      freqs.newRegime(HotFraction, HotFactor)
      // Bursty aggregate rate around the mean (Fig. 15's ragged envelope).
      rateFactor = 1.0 + RateBurstiness * (2 * rng.nextDouble() - 1.0)
      true
    } else false
  }

  override def shardWeights(op: String, numExecutors: Int, shardsPerExecutor: Int): Array[Double] =
    freqs.shardWeights(numExecutors, shardsPerExecutor)
}

/** The SSE model's constants; `Experiments.ssePipelineCostSec` derives the offered load from them. */
object SSEWorkload {
  val StatsOps: Seq[String] = Seq("moving_avg", "volume", "vwap", "min_max", "trade_count", "composite_index")
  val EventOps: Seq[String] = Seq("price_alarm", "volume_surge", "price_jump", "large_trade", "momentum")
  /** Zipf popularity; a regime makes `HotFraction` of stocks `HotFactor`× hot, rate ±`RateBurstiness`. */
  val NumStocks = 2000
  val StockSkew = 0.3
  val RegimeSec = 10.0
  val HotFraction = 0.02
  val HotFactor = 1.5
  val RateBurstiness = 0.35
  /** Transactions emitted per order (matching selectivity). */
  val TxPerOrder = 0.7
  /** CPU seconds per tuple of the transactor, a statistics and an event operator. */
  val TransactorCostSec = 0.8e-3
  val StatsCostSec = 0.04e-3
  val EventCostSec = 0.02e-3
}
