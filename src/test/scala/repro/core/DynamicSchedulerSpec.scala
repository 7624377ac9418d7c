package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.CpuAssignment.{Assignment, ExecutorInfo}
import repro.core.QueueingModel.ExecutorLoad

class DynamicSchedulerSpec extends AnyFunSuite with PropHelpers {

  private val MB = 1024.0 * 1024

  test("schedule produces a feasible decision for a light load") {
    val loads = IndexedSeq(ExecutorLoad(100, 1000), ExecutorLoad(50, 1000))
    val execs = IndexedSeq(ExecutorInfo(0, MB, 0.0), ExecutorInfo(1, MB, 0.0))
    val prev = Assignment.oneCoreLocal(execs, 2, 4)
    val d = DynamicScheduler.schedule(loads, execs, prev, IndexedSeq(4, 4), 0.05)
    assert(d.allocation.feasible)
    assert(d.assignment.isDefined)
    assert(d.wallClockMillis >= 0.0)
  }

  test("schedule allocates more cores to the hotter executor") {
    val loads = IndexedSeq(ExecutorLoad(3500, 1000), ExecutorLoad(100, 1000))
    val execs = IndexedSeq(ExecutorInfo(0, MB, 0.0), ExecutorInfo(1, MB, 0.0))
    val prev = Assignment.oneCoreLocal(execs, 2, 4)
    val d = DynamicScheduler.schedule(loads, execs, prev, IndexedSeq(4, 4), 0.01)
    val a = d.assignment.get
    assert(a.totalOf(0) >= 4, s"hot executor needs >= λ/μ cores: ${a.cores}")
    assert(a.totalOf(0) > a.totalOf(1))
  }

  test("schedule clips demand to cluster capacity when overloaded") {
    val loads = IndexedSeq(ExecutorLoad(9000, 1000), ExecutorLoad(9000, 1000))
    val execs = IndexedSeq(ExecutorInfo(0, MB, 0.0), ExecutorInfo(1, MB, 0.0))
    val prev = Assignment.oneCoreLocal(execs, 2, 4)
    val d = DynamicScheduler.schedule(loads, execs, prev, IndexedSeq(4, 4), 0.01)
    assert(!d.allocation.feasible)
    d.assignment.foreach { a =>
      assert((0 until 2).forall(i => a.usedOn(i) <= 4), "capacity respected even when clipping")
    }
  }

  test("scheduleNaive matches allocation totals but not necessarily locality") {
    val loads = IndexedSeq(ExecutorLoad(2500, 1000))
    val execs = IndexedSeq(ExecutorInfo(0, 8 * MB, 0.0))
    val prev = Assignment.oneCoreLocal(execs, 4, 2)
    val opt = DynamicScheduler.schedule(loads, execs, prev, IndexedSeq.fill(4)(2), 0.01)
    val naive = DynamicScheduler.scheduleNaive(loads, execs, IndexedSeq.fill(4)(2), 0.01)
    assert(opt.assignment.get.totalOf(0) == naive.assignment.get.totalOf(0))
    val optCost = opt.assignment.get.migrationCostFrom(prev, execs)
    val naiveCost = naive.assignment.get.migrationCostFrom(prev, execs)
    assert(optCost <= naiveCost + 1e-6,
      s"optimizing scheduler must not migrate more state than naive ($optCost vs $naiveCost)")
  }

  test("naive and optimised decisions share one clip when demand exceeds the cluster") {
    // Stability minima k = (3, 2) on 4 cores: proportional shedding rounds
    // to (2, 1) and the leftover core must still be handed out, identically
    // for both assigners (naive-EC differs only in placement, §5.4).
    val loads = IndexedSeq(ExecutorLoad(2500, 1000), ExecutorLoad(1500, 1000))
    val execs = IndexedSeq(ExecutorInfo(0, MB, 0.0), ExecutorInfo(1, MB, 0.0))
    val prev = Assignment.oneCoreLocal(execs, 2, 2)
    val opt = DynamicScheduler.schedule(loads, execs, prev, IndexedSeq(2, 2), 0.01)
    val naive = DynamicScheduler.scheduleNaive(loads, execs, IndexedSeq(2, 2), 0.01)
    assert(opt.allocation.cores == IndexedSeq(3, 2) && !opt.allocation.feasible)
    val (o, n) = (opt.assignment.get, naive.assignment.get)
    for (j <- execs.indices)
      assert(o.totalOf(j) == n.totalOf(j), s"executor $j: opt ${o.cores} vs naive ${n.cores}")
    assert(execs.indices.map(o.totalOf).sum == 4, "every core handed out")
  }

  test("scheduling wall clock is milliseconds even at 32-node scale") {
    // Table 3's claim: the decision procedure itself is a few ms at m=108
    // executors, n=32 nodes.
    val m = 108
    val rng = new scala.util.Random(5)
    val loads = IndexedSeq.tabulate(m)(_ => ExecutorLoad(200 + rng.nextInt(1800), 1000))
    val execs = IndexedSeq.tabulate(m)(j => ExecutorInfo(j % 32, 8 * MB, rng.nextInt(4) * MB))
    val prev = Assignment.oneCoreLocal(execs, 32, 8)
    val d = DynamicScheduler.schedule(loads, execs, prev, IndexedSeq.fill(32)(8), 0.05)
    assert(d.assignment.isDefined)
    assert(d.wallClockMillis < 1000.0, s"took ${d.wallClockMillis} ms")
  }

  test("rejects mismatched inputs") {
    val loads = IndexedSeq(ExecutorLoad(1, 10))
    val execs = IndexedSeq.empty[ExecutorInfo]
    val prev = Assignment(IndexedSeq(IndexedSeq.empty[Int]))
    intercept[IllegalArgumentException](
      DynamicScheduler.schedule(loads, execs, prev, IndexedSeq(4), 0.05))
  }

  test("the clip's leftover order is a stable sortBy on the cores it took") {
    forSeeds(1000) { rng =>
      val m = 1 + rng.nextInt(40)
      // Small values give many ties; large ones exercise the packed sign.
      val range = if (rng.nextBoolean()) 6 else 1 << 30
      val k = IndexedSeq.fill(m)(rng.nextInt(range))
      val scaled = Array.fill(m)(rng.nextInt(range))
      assert(DynamicScheduler.leftoverOrder(k, scaled).toSeq == k.indices.sortBy(j => -(k(j) - scaled(j))))
    }
  }
}
