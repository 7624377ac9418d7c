package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.MicroBenchWorkload

/** Bounds the error of the fixed tick (ROADMAP item 4) on the
  * `GoldenBehaviourSpec` run: halving `tickSec` from 1 ms to 0.5 ms must
  * leave throughput, migration bytes and remote bytes within 0.1% and every
  * protocol count equal, under all four controllers.
  *
  * Mean latency is deliberately not bounded: it is not tick-invariant (it
  * falls by about 2 ms per 1 ms of tick on this 2-operator path; DESIGN.md
  * §6 has the measurements).
  */
class TickSensitivitySpec extends AnyFunSuite {

  private val cluster = ClusterSpec(numNodes = 4, coresPerNode = 8)

  private def run(paradigm: Paradigm, tickSec: Double): SimResult = {
    val cfg = SimConfig(cluster, paradigm, executorsPerOp = 4, shardsPerExecutor = 256,
      executorsPerOpOverride = Map("sink" -> 2), tickSec = tickSec, durationSec = 20.0, warmupSec = 5.0)
    new StreamSimulator(cfg,
      new MicroBenchWorkload(cluster.totalCores / 1e-3 * 0.72, 16, zipfSkew = 0.65)).run()
  }

  private def relDiff(a: Double, b: Double): Double =
    if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))

  for ((name, paradigm) <- Seq("static" -> Paradigm.Static, "RC" -> Paradigm.ResourceCentric(),
         "Elasticutor" -> Paradigm.ExecutorCentric(), "naive-EC" -> Paradigm.ExecutorCentric(naive = true)))
    test(s"$name: halving the tick moves throughput and bytes by under 0.1% and no count") {
      val (coarse, fine) = (run(paradigm, 1e-3), run(paradigm, 0.5e-3))
      for ((metric, f) <- Seq[(String, SimResult => Double)](
             "throughput" -> (_.throughput),
             "migration bytes" -> (_.totalMigrationBytes),
             "remote bytes" -> (_.totalRemoteBytes)))
        assert(relDiff(f(coarse), f(fine)) < 1e-3, s"$metric: ${f(coarse)} at 1 ms vs ${f(fine)} at 0.5 ms")
      assert(coarse.moves.length == fine.moves.length)
      assert(coarse.repartitions.length == fine.repartitions.length)
      assert(coarse.schedulerMillis.length == fine.schedulerMillis.length)
    }
}
