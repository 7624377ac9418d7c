package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** Invariants of the consistent shard reassignment protocol (§3.3) at the
  * data-structure level: the labeling-tuple drain target, hold-buffer
  * ordering, and retiring-task lifecycle.
  */
class ProtocolInvariantsSpec extends AnyFunSuite {

  private def op = OperatorSpec("op", 1e-3, 128, 128, 32 * 1024)

  test("drainTarget captures the pending queue at pause time") {
    val from = new TaskRuntime(0)
    from.enqueue(new Cohort(0.0, 0.5, 500))
    val move = new ShardMoveOp(0, from, 1, 0.0, 32 * 1024, interNode = false)
    assert(move.drainTarget == 0.5, "labeling tuple sits behind 0.5 s of work")
    // Work arriving AFTER the pause is not part of the drain target.
    from.enqueue(new Cohort(0.1, 0.2, 200))
    assert(move.drainTarget == 0.5)
  }

  test("labeling tuple is reached exactly when pre-pause work is drained") {
    val from = new TaskRuntime(0)
    val stats = new CompletionStats
    from.enqueue(new Cohort(0.0, 0.030, 30))
    val move = new ShardMoveOp(7, from, 1, 0.0, 1024, interNode = true)
    from.drain(0.020, 0.020, stats)
    assert(from.drainedWork < move.drainTarget, "not yet")
    from.drain(0.010, 0.030, stats)
    assert(from.drainedWork + 1e-12 >= move.drainTarget, "labeling tuple reached")
  }

  test("hold buffer preserves arrival order and timestamps") {
    val from = new TaskRuntime(0)
    val move = new ShardMoveOp(0, from, 1, 0.0, 1024, interNode = false)
    move.hold += new Cohort(0.010, 0.001, 1)
    move.hold += new Cohort(0.020, 0.001, 1)
    assert(move.hold.map(_.arrivalSec).toSeq == Seq(0.010, 0.020))
    // Flushing into the destination keeps FIFO: enqueue preserves order.
    val dst = new TaskRuntime(1)
    move.hold.foreach(c => dst.enqueue(c))
    val stats = new CompletionStats
    dst.drain(0.001, 0.030, stats)
    assert(math.abs(stats.latencySum / stats.tuples - 0.020) < 1e-9, "first-held drains first")
  }

  test("a move starts Draining, with no sync or migrate end yet") {
    val from = new TaskRuntime(0)
    val move = new ShardMoveOp(0, from, 1, 0.0, 1024, interNode = true)
    assert(move.isDraining)
    assert(move.syncEndSec.isNaN && move.migrateEndSec.isNaN)
    move.syncEndSec = 0.002 // the labeling tuple is reached: draining ends
    assert(!move.isDraining)
  }

  test("executor pauses a shard while its move is active") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0,
      initialTaskNodes = IndexedSeq(0, 0))
    rt.setShardWeights(Array.fill(4)(0.25))
    rt.pause(2)
    assert(math.abs(rt.taskShare.sum - 0.75) < 1e-9, "paused shard out of routing")
    assert(math.abs(rt.totalShare - 1.0) < 1e-9, "but still arriving (to hold)")
  }

  test("state size scales with shards (migration cost accounting)") {
    val rt = new ExecutorRuntime(op, numShards = 256, localNode = 0,
      initialTaskNodes = IndexedSeq(0))
    assert(rt.stateBytes == 256.0 * 32 * 1024)
  }

  test("coresPerNode reflects task placement (assignment column)") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0,
      initialTaskNodes = IndexedSeq(0, 0, 1, 2))
    assert(rt.coresPerNode(4).toSeq == Seq(2, 1, 1, 0))
  }

  test("shardLoads derive from rate, weight and cpu cost") {
    val rt = new ExecutorRuntime(op, numShards = 2, localNode = 0,
      initialTaskNodes = IndexedSeq(0))
    rt.setShardWeights(Array(0.75, 0.25))
    val loads = rt.shardLoads(1000.0)
    assert(math.abs(loads(0) - 0.75) < 1e-9, "750 t/s * 1 ms = 0.75 core")
    assert(math.abs(loads(1) - 0.25) < 1e-9)
  }

  test("RepartitionRecord sync includes pause, drain and routing but not migration") {
    val rec = RepartitionRecord(1.0, "op", 10, pauseSec = 0.005, drainSec = 0.1,
      routingSec = 0.32, migrateSec = 0.5, bytes = 1e6)
    assert(math.abs(rec.syncSec - 0.425) < 1e-12)
  }

  test("back-pressure never drops already-queued work") {
    val t = new TaskRuntime(0)
    t.enqueue(new Cohort(0.0, 3.9, 390))
    t.enqueue(new Cohort(0.0, 0.5, 50)) // partially refused
    val stats = new CompletionStats
    var total = 0.0
    (1 to 5000).foreach(i => total += t.drain(0.001, i * 0.001, stats))
    assert(math.abs(total - 400.0) < 1e-6, "everything admitted is eventually served")
  }
}
