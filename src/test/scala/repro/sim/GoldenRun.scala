package repro.sim

import scala.collection.mutable
import repro.experiments.Experiments
import repro.sse.SSEWorkload
import repro.workload.MicroBenchWorkload

/** The small micro-benchmark run that `GoldenBehaviourSpec` pins and
  * `TickSensitivitySpec` repeats at a finer tick: 4 nodes × 8 cores, ω = 16,
  * 20 simulated s, under each of the four controllers. Each controller's
  * 1 ms run is simulated once per test JVM and shared by both suites.
  */
object GoldenRun {
  val cluster: ClusterSpec = ClusterSpec(numNodes = 4, coresPerNode = 8)

  val controllers: Seq[(String, Paradigm)] = Seq(
    "static" -> Paradigm.Static,
    "RC" -> Paradigm.ResourceCentric(),
    "Elasticutor" -> Paradigm.ExecutorCentric(),
    "naive-EC" -> Paradigm.ExecutorCentric(naive = true))

  def run(paradigm: Paradigm, tickSec: Double): SimResult = {
    val cfg = SimConfig(cluster, paradigm, executorsPerOp = 4, shardsPerExecutor = 256,
      executorsPerOpOverride = Map("sink" -> 2), tickSec = tickSec, durationSec = 20.0, warmupSec = 5.0)
    new StreamSimulator(cfg,
      new MicroBenchWorkload(cluster.totalCores / 1e-3 * 0.72, 16, zipfSkew = 0.65)).run()
  }

  /** Table 3's 8-node run: Elasticutor on SSE at load 1.15, 30 simulated s.
    * The cluster is saturated, so decisions grant cores that retiring tasks
    * still hold: tasks wait for a core for about 11 000 task-ticks, and 3
    * decisions are skipped while moves are in flight. It pins the engine's
    * core handover (the name is from when such nodes shared their cores).
    */
  def sseOversubscribed(): SimResult = {
    val cluster = Experiments.paperCluster(8)
    val cfg = SimConfig(cluster, Paradigm.ExecutorCentric(), executorsPerOp = 2, shardsPerExecutor = 64,
      executorsPerOpOverride = Map("transactor" -> 16), durationSec = 30.0, warmupSec = 5.0)
    new StreamSimulator(cfg,
      new SSEWorkload(offeredRate = cluster.totalCores / Experiments.ssePipelineCostSec * 1.15)).run()
  }

  private val oneMs = mutable.Map.empty[Paradigm, SimResult]

  /** The run at the default 1 ms tick, simulated on first use. */
  def atOneMs(paradigm: Paradigm): SimResult =
    synchronized(oneMs.getOrElseUpdate(paradigm, run(paradigm, 1e-3)))
}
