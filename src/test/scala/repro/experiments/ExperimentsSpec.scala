package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{OperatorSpec, SweepDriver}
import repro.sse.SSEWorkload

/** Structural smoke tests of the experiment harnesses at reduced scale —
  * the full-scale shape assertions live in `bench/`.
  */
class ExperimentsSpec extends AnyFunSuite {

  test("paperCluster matches the testbed spec") {
    val c = Experiments.paperCluster(32)
    assert(c.numNodes == 32 && c.coresPerNode == 8)
    assert(c.networkBytesPerSec == 125.0e6, "1 Gbps")
  }

  test("sseExecutors keeps executor population under the core count") {
    Seq(8, 16, 32).foreach { n =>
      val (others, overrides) = Experiments.sseExecutors(n)
      val total = overrides("transactor") + 11 * others
      assert(total < n * 8, s"$n nodes: $total executors")
    }
  }

  test("pipeline cost matches the operator specs") {
    // Cost per order: the transactor's plus each analytics operator's at the
    // transactor's selectivity, grouped into statistics and event operators.
    val w = new SSEWorkload(1000)
    val sel = w.transactor.downstream.map(_._2).distinct
    assert(sel.length == 1, s"one selectivity for all analytics: $sel")
    val (stats, events) = w.operators.tail.partition(o => SSEWorkload.StatsOps.contains(o.name))
    def groupCost(ops: Seq[OperatorSpec]): Double = {
      val costs = ops.map(_.cpuSecPerTuple).distinct
      assert(costs.length == 1, s"one cost per group: $costs")
      ops.length * costs.head
    }
    assert(Experiments.ssePipelineCostSec ==
      w.transactor.cpuSecPerTuple + sel.head * (groupCost(stats) + groupCost(events)))
  }

  test("table2 returns both approaches with finite rates (tiny run)") {
    val rows = Experiments.table2(nodes = 4, durationSec = 8.0)
    assert(rows.map(_.approach).sorted == Seq("Elasticutor", "naive-EC"))
    rows.foreach { r =>
      assert(r.migrationMBps >= 0 && r.remoteMBps >= 0)
      assert(r.throughput > 0)
    }
  }

  test("table3 returns one row per node count with positive metrics (tiny run)") {
    val rows = Experiments.table3(Seq(4), durationSec = 8.0)
    assert(rows.map(_.nodes) == Seq(4))
    assert(rows.head.throughputKTps > 0)
    assert(rows.head.schedulingMs >= 0)
  }

  test("fig6Point rejects unknown approaches") {
    intercept[IllegalArgumentException](Experiments.fig6Point("bogus", 0.0))
  }

  test("fig6Point runs a single point (tiny run)") {
    val r = Experiments.fig6Point("Elasticutor", 0.0, nodes = 2, durationSec = 8.0)
    assert(r.throughput > 0)
    assert(r.meanLatencySec >= 0)
  }

  test("printTable2/printTable3 render without error") {
    Experiments.printTable2(Seq(
      Experiments.Table2Row("naive-EC", 1, 2, 3, 4),
      Experiments.Table2Row("Elasticutor", 1, 2, 3, 4)))
    Experiments.printTable3(Seq(Experiments.Table3Row(8, 66.6, 4.1)))
    Experiments.printFig6(Seq(SweepDriver.SweepRow("RC", 16, 1e5, 0.2, 0.9, 1, 2)))
    Experiments.printReassign(Seq(Experiments.ReassignRow("RC", "operator-level", 300, 0.5, 7)),
      Seq(Experiments.SyncVsUpstreamRow(8, 40, 2)))
  }
}
