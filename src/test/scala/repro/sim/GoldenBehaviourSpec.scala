package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.MicroBenchWorkload

/** Pins the engine's exact output under all four controllers on one small
  * micro-benchmark run (4 nodes × 8 cores, ω = 16, 20 simulated s). The
  * engine is deterministic, so a refactor that claims to keep behaviour must
  * keep these values bit for bit; a change that moves them on purpose
  * updates them here and says why in EXPERIMENTS.md or CHANGES.md.
  */
class GoldenBehaviourSpec extends AnyFunSuite {

  private final case class Golden(throughput: Double, meanLatencySec: Double,
                                  migrationBytes: Double, remoteBytes: Double,
                                  moves: Int, repartitions: Int, schedulerCalls: Int)

  private val cluster = ClusterSpec(numNodes = 4, coresPerNode = 8)

  private def run(paradigm: Paradigm): Golden = {
    val cfg = SimConfig(cluster, paradigm, executorsPerOp = 4, shardsPerExecutor = 256,
      executorsPerOpOverride = Map("sink" -> 2), durationSec = 20.0, warmupSec = 5.0)
    val r = new StreamSimulator(cfg,
      new MicroBenchWorkload(cluster.totalCores / 1e-3 * 0.72, 16, zipfSkew = 0.65)).run()
    Golden(r.throughput, r.meanLatencySec, r.totalMigrationBytes, r.totalRemoteBytes,
      r.moves.length, r.repartitions.length, r.schedulerMillis.length)
  }

  private val expected = Seq(
    "static" -> (Paradigm.Static,
      Golden(23051.349513464007, 0.008987655654209847, 0.0, 0.0, 0, 0, 0)),
    "RC" -> (Paradigm.ResourceCentric(),
      Golden(23074.164960384085, 0.07392841844623989, 458752.0, 0.0, 0, 5, 0)),
    "Elasticutor" -> (Paradigm.ExecutorCentric(),
      Golden(23040.000000000196, 0.0021062859521344774, 3637248.0, 6235809.946974992, 243, 0, 19)),
    "naive-EC" -> (Paradigm.ExecutorCentric(naive = true),
      Golden(23039.999999999007, 0.0020843263753474828, 9076736.0, 1.0958206131711E8, 2893, 0, 19)))

  for ((name, (paradigm, golden)) <- expected)
    test(s"$name reproduces its golden run exactly") {
      assert(run(paradigm) == golden)
    }
}
