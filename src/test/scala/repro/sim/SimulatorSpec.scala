package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.sse.SSEWorkload
import repro.workload.MicroBenchWorkload

/** Integration tests of the simulation engine at small scale (2×8-core
  * nodes, seconds of simulated time). These pin down the qualitative
  * behaviours the paper's evaluation relies on; the bench suites rerun them
  * at paper scale.
  */
class SimulatorSpec extends AnyFunSuite {

  private val cluster = ClusterSpec(numNodes = 2, coresPerNode = 8)

  private def micro(rate: Double, omega: Double, skew: Double = 0.5,
                    tupleBytes: Double = 128, keys: Int = 1000, seed: Long = 42) =
    new MicroBenchWorkload(rate, omega, tupleBytes = tupleBytes,
      numKeys = keys, zipfSkew = skew, seed = seed)

  private def cfg(paradigm: Paradigm, duration: Double = 20.0) = SimConfig(
    cluster = cluster,
    paradigm = paradigm,
    executorsPerOp = 4,
    shardsPerExecutor = 16,
    executorsPerOpOverride = Map("sink" -> 2),
    durationSec = duration,
    warmupSec = 5.0)

  private def ec = Paradigm.ExecutorCentric()
  private def rc = Paradigm.ResourceCentric()

  test("layout: EC creates y executors per op with one initial core each") {
    val sim = new StreamSimulator(cfg(ec), micro(1000, 0))
    val l = sim.layout
    assert(l.find(_._1 == "calculator").get._2 == 4)
    assert(l.find(_._1 == "sink").get._2 == 2)
    assert(l.flatMap(_._3).forall(_ == 1))
  }

  test("layout: static creates one runtime per op using all cluster cores") {
    val sim = new StreamSimulator(cfg(Paradigm.Static), micro(1000, 0))
    val l = sim.layout
    assert(l.map(_._2).forall(_ == 1))
    assert(l.flatMap(_._3).sum == cluster.totalCores, "all 16 cores bound")
  }

  test("layout: static rejects more operators than cores, naming both counts") {
    // SSE's 12 operators cannot each get a core of one 8-core node.
    val e = intercept[IllegalArgumentException](new StreamSimulator(
      SimConfig(ClusterSpec(numNodes = 1, coresPerNode = 8), Paradigm.Static, executorsPerOp = 1,
        shardsPerExecutor = 16, durationSec = 10, warmupSec = 2), new SSEWorkload(1000)))
    assert(e.getMessage.contains("12 operators") && e.getMessage.contains("has 8"), e.getMessage)
  }

  test("static approach sustains a light uniform workload") {
    val r = new StreamSimulator(cfg(Paradigm.Static), micro(2000, 0, skew = 0.0)).run()
    assert(r.throughput > 1800, s"throughput ${r.throughput}")
    assert(r.meanLatencySec < 0.5, s"latency ${r.meanLatencySec}")
  }

  test("simulation is deterministic") {
    val a = new StreamSimulator(cfg(ec, duration = 10), micro(3000, 2)).run()
    val b = new StreamSimulator(cfg(ec, duration = 10), micro(3000, 2)).run()
    assert(a.throughput == b.throughput)
    assert(a.meanLatencySec == b.meanLatencySec)
    assert(a.moves.length == b.moves.length)
  }

  test("throughput never exceeds offered load") {
    val r = new StreamSimulator(cfg(ec), micro(3000, 2)).run()
    val offered = r.perSecond.map(_.offered).sum
    val done = r.perSecond.map(_.throughput).sum
    assert(done <= offered * 1.001, s"done=$done offered=$offered")
  }

  test("EC outperforms static under skewed keys (operator hot spot)") {
    // Zipf 0.8 over 128 keys at 7 K tuples/s: no single key exceeds one
    // core, but static's fixed shard partition lumps the hottest shard with
    // others on a fixed core — that core overloads (latency climbs to the
    // back-pressure cap, throughput drops) while EC isolates the hot shard
    // on its own core and stays stable.
    val w = () => micro(7000, 0, skew = 0.8, keys = 128)
    val rs = new StreamSimulator(cfg(Paradigm.Static), w()).run()
    val re = new StreamSimulator(cfg(ec), w()).run()
    assert(re.throughput > rs.throughput,
      s"EC ${re.throughput} vs static ${rs.throughput}")
    // The headline signal is latency (paper: 1–2 orders of magnitude):
    // static's overloaded core rides the back-pressure cap.
    assert(re.meanLatencySec < rs.meanLatencySec / 5,
      s"EC ${re.meanLatencySec}s vs static ${rs.meanLatencySec}s")
  }

  test("EC saturates near cluster capacity under overload") {
    // 16 cores at 1 ms/tuple -> ~16K tuples/s ceiling (minus sink + waste).
    val r = new StreamSimulator(cfg(ec), micro(30000, 0)).run()
    assert(r.throughput > 10000, s"throughput ${r.throughput}")
    assert(r.throughput < 16500)
  }

  test("EC keeps latency low at moderate load") {
    val r = new StreamSimulator(cfg(ec), micro(6000, 2)).run()
    assert(r.meanLatencySec < 0.25, s"latency ${r.meanLatencySec}")
    assert(r.throughput > 5500, s"throughput ${r.throughput}")
  }

  test("EC scheduler produces decisions every period") {
    val r = new StreamSimulator(cfg(ec), micro(3000, 0)).run()
    assert(r.schedulerMillis.length >= 15, s"got ${r.schedulerMillis.length} decisions")
    assert(r.schedulerMillis.forall(_ < 1000))
  }

  test("EC shard moves happen under dynamics and are logged") {
    val r = new StreamSimulator(cfg(ec), micro(6000, 4, skew = 1.0)).run()
    assert(r.moves.nonEmpty, "shuffles must trigger intra-executor rebalancing")
    r.moves.foreach { m =>
      assert(m.syncSec >= cluster.shardSyncOverheadSec - 1e-9)
      assert(m.migrateSec >= 0)
      if (!m.interNode) assert(m.bytes == 0, "intra-node moves share state, no bytes")
    }
  }

  test("EC intra-node moves dominate when locality optimisation is on") {
    val r = new StreamSimulator(cfg(ec), micro(6000, 4, skew = 1.0)).run()
    val intra = r.moves.count(!_.interNode)
    assert(intra > 0)
  }

  test("RC repartitions under dynamics with global-sync cost") {
    val r = new StreamSimulator(cfg(rc, duration = 30), micro(6000, 6, skew = 1.0)).run()
    assert(r.repartitions.nonEmpty, "skew shifts must trigger RC repartitioning")
    r.repartitions.foreach { rep =>
      assert(rep.routingSec >= cluster.controlRttSec * 32 - 1e-9,
        "routing update scales with 32 upstream executors")
      assert(rep.syncSec > 0.1, s"global sync is expensive: ${rep.syncSec}")
    }
  }

  test("RC sync is orders of magnitude above EC move sync (Fig. 8)") {
    // Light load keeps pending queues short, as in the paper's
    // micro-benchmark: EC sync is then dominated by the ~2 ms control
    // overhead while RC pays the 32-upstream global barrier.
    val re = new StreamSimulator(cfg(ec, duration = 30), micro(2500, 6, skew = 1.0)).run()
    val rr = new StreamSimulator(cfg(rc, duration = 30), micro(2500, 6, skew = 1.0)).run()
    val ecSync = re.moves.map(_.syncSec).sum / re.moves.length
    val rcSync = rr.repartitions.map(_.syncSec).sum / rr.repartitions.length
    assert(rcSync > ecSync * 10, s"rc=$rcSync ec=$ecSync")
  }

  test("EC beats RC on latency under a highly dynamic workload (Fig. 6)") {
    val re = new StreamSimulator(cfg(ec, duration = 30), micro(8000, 8, skew = 1.0)).run()
    val rr = new StreamSimulator(cfg(rc, duration = 30), micro(8000, 8, skew = 1.0)).run()
    assert(re.meanLatencySec < rr.meanLatencySec,
      s"EC ${re.meanLatencySec} vs RC ${rr.meanLatencySec}")
    assert(re.throughput >= rr.throughput * 0.95)
  }

  test("single elastic executor scales beyond one node (Fig. 10)") {
    val conf = SimConfig(cluster, ec, executorsPerOp = 1, shardsPerExecutor = 64,
      durationSec = 20, warmupSec = 5)
    val r = new StreamSimulator(conf, micro(10000, 0, skew = 0.3)).run()
    // One node has 8 cores = 8K tuples/s; beating that proves remote tasks work.
    assert(r.throughput > 8800, s"throughput ${r.throughput}")
    assert(r.totalRemoteBytes > 0, "remote tasks move data through the receiver")
  }

  test("data-intensive single executor is capped by the network (Fig. 10)") {
    val slowNet = cluster.copy(networkBytesPerSec = 2.0e6)
    val conf = SimConfig(slowNet, ec, executorsPerOp = 1, shardsPerExecutor = 64,
      durationSec = 20, warmupSec = 5)
    val r = new StreamSimulator(conf, micro(10000, 0, skew = 0.3, tupleBytes = 2048)).run()
    // 2 MB/s NIC, 4 KB round-trip bytes/tuple -> ~500 remote tuples/s cap.
    assert(r.throughput < 9200, s"throughput ${r.throughput} should be network-capped")
  }

  test("static and RC never pay the remote NIC cap") {
    // Only an elastic executor's receiver forwards to remote tasks (§3.2):
    // the same data-intensive run on a 2 MB/s network matches the default
    // network second by second, and no second counts remote bytes.
    def run(paradigm: Paradigm, net: ClusterSpec) = new StreamSimulator(
      SimConfig(net, paradigm, executorsPerOp = 1, shardsPerExecutor = 64, durationSec = 20, warmupSec = 5),
      micro(10000, 0, skew = 0.3, tupleBytes = 2048)).run()
    for (paradigm <- Seq(Paradigm.Static, rc)) {
      val slow = run(paradigm, cluster.copy(networkBytesPerSec = 2.0e6))
      assert(slow.perSecond == run(paradigm, cluster).perSecond, s"$paradigm")
      assert(slow.perSecond.forall(_.remoteBytes == 0), s"$paradigm")
    }
  }

  test("naive-EC and Elasticutor both sustain the workload; naive migrates at least as much") {
    val naive = new StreamSimulator(cfg(Paradigm.ExecutorCentric(naive = true), 30),
      micro(8000, 4, skew = 1.0)).run()
    val opt = new StreamSimulator(cfg(ec, 30), micro(8000, 4, skew = 1.0)).run()
    assert(naive.throughput > 6000)
    assert(opt.throughput > 6000)
    assert(opt.totalMigrationBytes <= naive.totalMigrationBytes * 1.5 + 1e6,
      s"opt ${opt.totalMigrationBytes} naive ${naive.totalMigrationBytes}")
  }

  test("EC counts scheduler updates deferred by moves in flight") {
    // At ω = 30 and 12 K tuples/s on 16 cores, some periodic decisions change
    // an executor with shard moves in flight and are skipped whole (4 on this
    // run); the count is of decisions, not executors. Static has no scheduler.
    val r = new StreamSimulator(cfg(ec), micro(12000, 30, skew = 0.8)).run()
    assert(r.deferredAssignments > 0, "expected at least one deferred decision")
    assert(new StreamSimulator(cfg(Paradigm.Static), micro(12000, 30, skew = 0.8)).run()
      .deferredAssignments == 0)
  }

  test("per-second series covers the run") {
    val r = new StreamSimulator(cfg(ec, duration = 12), micro(1000, 0)).run()
    assert(r.perSecond.map(_.sec) == (1 to 12))
  }

  test("durations and warm-ups that are not whole seconds are rejected") {
    val static = cfg(Paradigm.Static, duration = 12)
    val e1 = intercept[IllegalArgumentException](static.copy(durationSec = 12.5))
    assert(e1.getMessage.contains("12.5"))
    val e2 = intercept[IllegalArgumentException](static.copy(warmupSec = 5.5))
    assert(e2.getMessage.contains("5.5"))
    val r = new StreamSimulator(static.copy(cluster = ClusterSpec(numNodes = 2, coresPerNode = 4)),
      micro(4000, 0)).run()
    assert(math.abs(r.throughput - 4000) < 1e-6, s"throughput ${r.throughput}")
  }

  test("post-warmup aggregates equal the per-second rows past warm-up") {
    val c = cfg(ec)
    val r = new StreamSimulator(c, new MicroBenchWorkload(6000, 4, zipfSkew = 1.0)).run()
    val measured = r.perSecond.filter(_.sec > c.warmupSec)
    val span = c.durationSec - c.warmupSec
    assert(measured.nonEmpty)
    assert(r.throughput == measured.map(_.throughput).sum / span)
    assert(r.migrationRateBytesPerSec == measured.map(_.migrationBytes).sum / span)
    assert(r.remoteRateBytesPerSec == measured.map(_.remoteBytes).sum / span)
  }
}
