package repro.sse

import org.scalatest.funsuite.AnyFunSuite
import repro.sim._

/** The SSE workload driving the simulator: topology shape, dynamics, and a
  * small-scale end-to-end run under both executor-centric schedulers.
  */
class SSEWorkloadSpec extends AnyFunSuite {

  test("topology: transactor plus 6 statistics and 5 event operators (Fig. 14)") {
    val w = new SSEWorkload(1000)
    assert(w.operators.length == 12)
    assert(w.operators.head.name == "transactor")
    assert(w.operators.head.downstream.length == 11)
    assert(w.throughputOp == "transactor")
  }

  test("order and transaction sizes match §5.4 (96 B in, 160 B out)") {
    val w = new SSEWorkload(1000)
    assert(w.transactor.tupleBytes == 96.0)
    assert(w.transactor.outBytes == 160.0)
  }

  test("regimes change the key distribution periodically") {
    val w = new SSEWorkload(1000)
    assert(SSEWorkload.RegimeSec == 10.0)
    assert(w.advanceTo(0.0), "first regime installs at t=0")
    assert(!w.advanceTo(9.9))
    assert(w.advanceTo(10.0))
    assert(!w.advanceTo(12.0))
  }

  test("aggregate rate is bursty around the mean") {
    val w = new SSEWorkload(10000)
    val rates = (0 until 50).map { i =>
      val t = i * SSEWorkload.RegimeSec
      w.advanceTo(t)
      w.externalRate("transactor", t)
    }
    assert(rates.max > 10000 * 1.1)
    assert(rates.min < 10000 * 0.9)
    assert(rates.forall(r => r >= 10000 * 0.6 && r <= 10000 * 1.4))
  }

  test("shard weights are normalised and skewed") {
    val w = new SSEWorkload(1000)
    w.advanceTo(0.0)
    val weights = w.shardWeights("transactor", 4, 64)
    assert(math.abs(weights.sum - 1.0) < 1e-9)
    assert(weights.max > 1.2 / weights.length, "popular stocks concentrate load")
  }

  test("Elasticutor sustains the SSE workload at small scale") {
    val cluster = ClusterSpec(4, 8)
    val cfg = SimConfig(cluster, Paradigm.ExecutorCentric(),
      executorsPerOp = 1, shardsPerExecutor = 32,
      executorsPerOpOverride = Map("transactor" -> 8),
      durationSec = 30, warmupSec = 5)
    val r = new StreamSimulator(cfg, new SSEWorkload(12000, spoutExecutors = 8)).run()
    assert(r.throughput > 9000, s"throughput ${r.throughput}")
    assert(r.meanLatencySec < 1.0, s"latency ${r.meanLatencySec}")
  }

  test("naive-EC also sustains it but moves more state (Table 2 direction)") {
    val cluster = ClusterSpec(4, 8)
    def cfg(naive: Boolean) = SimConfig(cluster, Paradigm.ExecutorCentric(naive = naive),
      executorsPerOp = 1, shardsPerExecutor = 32,
      executorsPerOpOverride = Map("transactor" -> 8),
      durationSec = 30, warmupSec = 5)
    val opt = new StreamSimulator(cfg(false), new SSEWorkload(12000, spoutExecutors = 8)).run()
    val naive = new StreamSimulator(cfg(true), new SSEWorkload(12000, spoutExecutors = 8)).run()
    assert(naive.throughput > 8000)
    assert(opt.totalMigrationBytes + opt.totalRemoteBytes <=
      (naive.totalMigrationBytes + naive.totalRemoteBytes) * 1.2 + 1e6,
      s"opt mig=${opt.totalMigrationBytes} rem=${opt.totalRemoteBytes} vs " +
        s"naive mig=${naive.totalMigrationBytes} rem=${naive.totalRemoteBytes}")
  }
}
