package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.LoadBalancer._

class LoadBalancerSpec extends AnyFunSuite with PropHelpers {

  test("taskLoads aggregates per task") {
    val loads = taskLoads(IndexedSeq(1.0, 2.0, 3.0, 4.0), IndexedSeq(0, 1, 0, 1), 2)
    assert(loads.toSeq == Seq(4.0, 6.0))
  }

  test("imbalance of perfect balance is 1") {
    assert(imbalance(IndexedSeq(1.0, 1.0), IndexedSeq(0, 1), 2) == 1.0)
  }

  test("imbalance of zero workload is 1 (trivially balanced)") {
    assert(imbalance(IndexedSeq(0.0, 0.0), IndexedSeq(0, 1), 2) == 1.0)
  }

  test("imbalance detects all-on-one-task skew") {
    assert(imbalance(IndexedSeq(1.0, 1.0), IndexedSeq(0, 0), 2) == 2.0)
  }

  test("rebalance fixes a skewed assignment to within theta") {
    val shardLoad = IndexedSeq.fill(16)(1.0)
    val skewed = IndexedSeq.fill(16)(0) // everything on task 0 of 4
    val r = rebalance(shardLoad, skewed, numTasks = 4, theta = 1.2)
    assert(r.imbalance <= 1.2)
    assert(r.moves.nonEmpty)
  }

  test("rebalance leaves a balanced assignment untouched") {
    val shardLoad = IndexedSeq.fill(8)(1.0)
    val balanced = IndexedSeq(0, 1, 2, 3, 0, 1, 2, 3)
    val r = rebalance(shardLoad, balanced, numTasks = 4, theta = 1.2)
    assert(r.moves.isEmpty)
    assert(r.assignment == balanced)
  }

  test("rebalance moves minimal shards for a small perturbation") {
    // One task has one extra shard-worth of load; a single move suffices.
    val shardLoad = IndexedSeq(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    val skewed = IndexedSeq(0, 0, 0, 0, 0, 1, 1, 2, 2)
    val r = rebalance(shardLoad, skewed, numTasks = 3, theta = 1.2)
    assert(r.imbalance <= 1.2)
    assert(r.moves.length <= 2, s"expected few moves, got ${r.moves}")
  }

  test("rebalance cannot split one dominant shard (granularity limit)") {
    // §3.1: too few shards -> poor balancing quality; the algorithm must
    // converge without thrashing.
    val shardLoad = IndexedSeq(100.0, 1.0, 1.0)
    val r = rebalance(shardLoad, IndexedSeq(0, 0, 0), numTasks = 2, theta = 1.2)
    assert(r.imbalance > 1.2, "hot shard cannot be split")
    assert(r.moves.length <= 3)
  }

  test("rebalance property: never worsens imbalance, assignment stays valid") {
    forSeeds(100) { rng =>
      val n = rng.nextInt(7) + 2
      val z = n + rng.nextInt(64 - n + 1)
      val loads = IndexedSeq.fill(z)(rng.nextDouble() * 10.0)
      val assign = IndexedSeq.fill(z)(rng.nextInt(n))
      val before = imbalance(loads, assign, n)
      val r = rebalance(loads, assign, n, theta = 1.2)
      assert(r.imbalance <= before + 1e-9)
      r.assignment.foreach(t => assert(t >= 0 && t < n))
      assert(r.assignment.length == loads.length)
    }
  }

  test("rebalance moves replay to the returned assignment") {
    val loads = IndexedSeq(5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0, 1.0)
    val start = IndexedSeq(0, 0, 0, 0, 0, 1, 1, 1)
    val r = rebalance(loads, start, numTasks = 2, theta = 1.1)
    val replayed = start.toArray
    r.moves.foreach(m => {
      assert(replayed(m.shard) == m.fromTask, "move source matches current owner")
      replayed(m.shard) = m.toTask
    })
    assert(replayed.toIndexedSeq == r.assignment)
  }

  test("collapse merges multi-hop moves") {
    val ms = List(Move(3, 0, 1), Move(3, 1, 2), Move(5, 1, 0))
    assert(collapse(ms) == List(Move(3, 0, 2), Move(5, 1, 0)))
  }

  test("collapse drops moves that return home") {
    val ms = List(Move(3, 0, 1), Move(3, 1, 0))
    assert(collapse(ms).isEmpty)
  }

  /** A task-count change as the engine makes it: evacuate the tasks at
    * `numTasks` and above, then rebalance the map that leaves.
    */
  private def resize(loads: IndexedSeq[Double], start: IndexedSeq[Int], numTasks: Int): (List[Move], Rebalance) = {
    val forced = evacuate(loads, start, numTasks)
    val evacuated = start.toArray
    forced.foreach(m => evacuated(m.shard) = m.toTask)
    (forced, rebalance(loads, evacuated.toIndexedSeq, numTasks))
  }

  test("resize up spreads shards onto new tasks") {
    val loads = IndexedSeq.fill(12)(1.0)
    val start = IndexedSeq(0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    val (forced, r) = resize(loads, start, numTasks = 4)
    assert(forced.isEmpty, "no task was removed")
    assert(r.imbalance <= 1.2)
    assert((0 until 4).forall(t => r.assignment.contains(t)), "all tasks get shards")
  }

  test("resize down evacuates removed tasks") {
    val loads = IndexedSeq.fill(12)(1.0)
    val start = IndexedSeq(0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3)
    val (_, r) = resize(loads, start, numTasks = 2)
    r.assignment.foreach(t => assert(t < 2, "no shard may stay on a removed task"))
    assert(r.imbalance <= 1.2)
  }

  test("resize down forced moves originate at removed tasks") {
    val loads = IndexedSeq.fill(8)(1.0)
    val start = IndexedSeq(0, 1, 2, 3, 0, 1, 2, 3)
    val (forced, _) = resize(loads, start, numTasks = 2)
    assert(forced.forall(_.fromTask >= 2))
    assert(forced.map(_.shard).toSet == Set(2, 3, 6, 7))
  }

  test("resize swaps a removed task for an added one") {
    // A core moving between nodes: task 2 is new and empty, task 3 (indexed
    // after the new task set) is removed, so the task count stays at 3.
    val loads = IndexedSeq.tabulate(12)(i => 1.0 + i % 3)
    val start = IndexedSeq(0, 1, 3, 0, 1, 3, 0, 1, 3, 0, 1, 3)
    val (forced, r) = resize(loads, start, numTasks = 3)
    assert(forced.nonEmpty && forced.forall(_.fromTask == 3), s"forced moves: $forced")
    assert(forced.map(_.shard).toSet == start.indices.filter(start(_) == 3).toSet)
    assert(r.assignment.forall(_ < 3), "no shard may stay on the removed task")
  }

  test("evacuate property: removed tasks' shards, biggest first, each onto the least-loaded survivor") {
    forSeeds(200) { rng =>
      val n = 1 + rng.nextInt(6)
      val removed = 1 + rng.nextInt(4)
      val z = 1 + rng.nextInt(64)
      // Some equal loads, so ties in both orders come up.
      val loads = IndexedSeq.fill(z)(if (rng.nextInt(4) == 0) 1.0 else rng.nextDouble() * 10.0)
      val start = IndexedSeq.fill(z)(rng.nextInt(n + removed))
      val forced = evacuate(loads, start, n)
      assert(forced.map(_.shard).sorted == start.indices.filter(start(_) >= n))
      assert(forced.forall(m => m.fromTask == start(m.shard)))
      assert(forced.map(m => loads(m.shard)) == forced.map(m => loads(m.shard)).sorted.reverse,
        "biggest shard first")
      val survivorLoads = Array.tabulate(n)(t => start.indices.filter(start(_) == t).map(loads).sum)
      val evacuated = start.toArray
      for (m <- forced) {
        assert(m.toTask < n && survivorLoads(m.toTask) <= survivorLoads.min + 1e-9,
          s"shard ${m.shard} went to task ${m.toTask} at ${survivorLoads(m.toTask)}, not the least loaded")
        survivorLoads(m.toTask) += loads(m.shard)
        evacuated(m.shard) = m.toTask
      }
      assert(evacuated.forall(_ < n), "no shard left on a removed task")
      val before = imbalance(loads, evacuated.toIndexedSeq, n)
      assert(rebalance(loads, evacuated.toIndexedSeq, n).imbalance <= before + 1e-9)
    }
  }

  test("rejects invalid arguments") {
    intercept[IllegalArgumentException](imbalance(IndexedSeq(1.0), IndexedSeq(0), 0))
    intercept[IllegalArgumentException](rebalance(IndexedSeq(1.0), IndexedSeq(0, 1), 2))
    intercept[IllegalArgumentException](rebalance(IndexedSeq(1.0), IndexedSeq(0), 1, theta = 0.5))
    intercept[IllegalArgumentException](evacuate(IndexedSeq(1.0), IndexedSeq(0), 0))
    intercept[IllegalArgumentException](evacuate(IndexedSeq(1.0), IndexedSeq(0, 1), 1))
  }
}
