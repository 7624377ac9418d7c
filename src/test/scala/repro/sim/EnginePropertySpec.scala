package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.experiments.Experiments
import repro.sse.SSEWorkload
import repro.workload.MicroBenchWorkload

/** Seeded random small runs of the whole engine: 2–4 nodes, the
  * micro-benchmark (2–8 cores per node, ω 0–30, zipf 0.5–1.0) or SSE (8
  * cores per node), load 0.3–1.3 of capacity, z ∈ {16, 64, 256}, 10–20
  * simulated s, under all four controllers. Each run must finish without the
  * engine's core-rule check firing, and be well-formed and deterministic.
  * Every shard move's timeline must be ordered and lie inside its run.
  */
class EnginePropertySpec extends AnyFunSuite with PropHelpers {

  private val controllers = GoldenRun.controllers.map(_._2)

  /** One random config and a function that simulates it from scratch. */
  private def randomRun(rng: scala.util.Random): (SimConfig, () => SimResult) = {
    val nodes = 2 + rng.nextInt(3)
    val paradigm = controllers(rng.nextInt(controllers.length))
    val load = 0.3 + rng.nextDouble()
    val z = Seq(16, 64, 256)(rng.nextInt(3))
    val duration = (10 + rng.nextInt(11)).toDouble
    if (rng.nextInt(4) == 0) {
      // SSE's 12 operators need 8-core nodes: one executor per analytics
      // operator plus two transactor executors per node.
      val cluster = Experiments.paperCluster(nodes)
      val rate = cluster.totalCores / Experiments.ssePipelineCostSec * load
      val config = SimConfig(cluster, paradigm, executorsPerOp = 1, shardsPerExecutor = z,
        executorsPerOpOverride = Map("transactor" -> 2 * nodes), durationSec = duration, warmupSec = 2.0)
      (config, () => new StreamSimulator(config, new SSEWorkload(rate)).run())
    } else {
      val cluster = ClusterSpec(nodes, coresPerNode = 2 + rng.nextInt(7))
      val rate = cluster.totalCores / MicroBenchWorkload.CalculatorCostSec * load
      val omega = rng.nextDouble() * 30
      val skew = 0.5 + rng.nextDouble() * 0.5
      val seed = rng.nextLong()
      val config = SimConfig(cluster, paradigm, executorsPerOp = 1 + rng.nextInt(cluster.totalCores / 2),
        shardsPerExecutor = z, durationSec = duration, warmupSec = 2.0)
      (config, () => new StreamSimulator(config,
        new MicroBenchWorkload(rate, omega, zipfSkew = skew, seed = seed)).run())
    }
  }

  test("random small runs keep the core rule and are well-formed and deterministic") {
    var skipping = 0
    var (moves, waited, totalWait, longestWait) = (0, 0, 0.0, 0.0)
    forSeeds(80) { rng =>
      val (config, run) = randomRun(rng)
      val r = run()
      for (m <- r.perSecond; v <- Seq(m.throughput, m.meanLatencySec, m.migrationBytes,
             m.remoteBytes, m.backpressured, m.offered))
        assert(!v.isNaN && !v.isInfinite && v >= 0, s"second ${m.sec}: $m")
      // The entry operator completes no tuple before it is offered.
      val done = r.perSecond.scanLeft(0.0)(_ + _.throughput)
      val offered = r.perSecond.scanLeft(0.0)(_ + _.offered)
      done.lazyZip(offered).foreach((d, o) => assert(d <= o * (1 + 1e-9), s"completed $d > offered $o"))
      assert(r.deferredAssignments <= r.schedulerMillis.length)
      if (r.deferredAssignments > 0) skipping += 1
      // start <= sync end <= migrate end <= routing update, inside the run. A
      // move resumes within a tick of its migrate end unless its target task
      // waits for a core.
      for (m <- r.moves) {
        val migrateEnd = m.timeSec + m.syncSec + m.migrateSec
        assert(m.timeSec >= 0 && m.syncSec >= 0 && m.migrateSec >= 0, s"$m")
        assert(m.resumeSec >= migrateEnd - 1e-9 && m.resumeSec < config.durationSec, s"$m")
        val waitSec = m.resumeSec - migrateEnd
        if (waitSec >= config.tickSec) {
          waited += 1; totalWait += waitSec; longestWait = math.max(longestWait, waitSec)
        }
      }
      moves += r.moves.length
      assert(run().perSecond == r.perSecond, "same seed, different run")
    }
    assert(skipping > 3, s"only $skipping of 80 runs skipped a decision")
    assert(waited > 0, s"none of $moves moves waited a tick for its target's core")
    info(f"$waited of $moves moves waited a tick or more for their target's core: " +
      f"${totalWait / waited}%.3f s on average, the longest $longestWait%.3f s")
  }
}
