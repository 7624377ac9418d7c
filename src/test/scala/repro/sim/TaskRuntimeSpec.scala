package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class TaskRuntimeSpec extends AnyFunSuite with PropHelpers {

  test("enqueue accumulates work and tuples") {
    val t = new TaskRuntime(0)
    assert(t.enqueue(new Cohort(0.0, 0.5, 100)) == 0.0)
    assert(t.queuedWork == 0.5)
    assert(t.queuedTuples == 100)
  }

  test("enqueue refuses work beyond the back-pressure cap") {
    val t = new TaskRuntime(0)
    assert(t.enqueue(new Cohort(0.0, 3.0, 300)) == 0.0)
    val refused = t.enqueue(new Cohort(0.0, 2.0, 200))
    assert(math.abs(refused - 100.0) < 1e-9, s"half the second cohort refused: $refused")
    assert(math.abs(t.queuedWork - 4.0) < 1e-9)
  }

  test("enqueue refuses everything when full") {
    val t = new TaskRuntime(0)
    t.enqueue(new Cohort(0.0, 4.0, 400))
    assert(t.enqueue(new Cohort(0.0, 1.0, 100)) == 100.0)
  }

  test("drain completes work FIFO and reports latency") {
    val t = new TaskRuntime(0)
    val stats = new CompletionStats
    t.enqueue(new Cohort(0.0, 0.010, 10))
    t.enqueue(new Cohort(0.001, 0.010, 10))
    val done = t.drain(0.010, nowSec = 0.010, stats)
    assert(math.abs(done - 10.0) < 1e-9, "exactly the first cohort drains")
    assert(math.abs(stats.meanLatency - 0.010) < 1e-9)
    assert(math.abs(t.queuedWork - 0.010) < 1e-9)
  }

  test("drain splits a cohort when capacity runs out") {
    val t = new TaskRuntime(0)
    val stats = new CompletionStats
    t.enqueue(new Cohort(0.0, 0.020, 20))
    val done = t.drain(0.005, 0.005, stats)
    assert(math.abs(done - 5.0) < 1e-9)
    assert(math.abs(t.queuedTuples - 15.0) < 1e-9)
  }

  test("drainedWork accumulates (labeling-tuple bookkeeping)") {
    val t = new TaskRuntime(0)
    val stats = new CompletionStats
    t.enqueue(new Cohort(0.0, 0.030, 30))
    t.drain(0.010, 0.010, stats)
    t.drain(0.010, 0.020, stats)
    assert(math.abs(t.drainedWork - 0.020) < 1e-9)
    assert(!t.isDrained)
    t.drain(0.010, 0.030, stats)
    assert(t.isDrained)
  }

  private def same(a: Double, b: Double, what: => String): Unit =
    if (java.lang.Double.doubleToRawLongBits(a) != java.lang.Double.doubleToRawLongBits(b))
      fail(s"$what: $a vs $b")

  test("TaskRuntime's ring matches the ArrayDeque reference bit for bit") {
    // How often each queue path ran, over all seeds.
    var (partial, full, longDrains, wraps, peak, splitPops) = (0, 0, 0, 0, 0, 0)
    forSeeds(300, seed = 777L) { rng =>
      val task = new TaskRuntime(0)
      val ref = new TaskRuntimeReference
      val (stats, refStats) = (new CompletionStats, new CompletionStats)
      // Per sequence: how often it enqueues, and how large its cohorts are
      // (large ones fill the 4 s back-pressure cap).
      val enqueueP = 0.4 + 0.4 * rng.nextDouble()
      val maxWork = if (rng.nextBoolean()) 1e-3 else 1.5
      var (capacity, head) = (TaskRuntime.InitialCapacity, 0) // the ring's layout, to count wraps
      var now = 0.0
      for (step <- 0 until 500) {
        now += 1e-3 * rng.nextDouble()
        val before = ref.length
        if (rng.nextDouble() < enqueueP) {
          val work = if (rng.nextInt(20) == 0) 0.0 else maxWork * rng.nextDouble()
          val tuples = work * 1e3 * (0.5 + rng.nextDouble())
          val refused = task.enqueue(now, work, tuples)
          val refRefused = ref.enqueue(new Cohort(now, work, tuples))
          same(refused, refRefused, s"step $step: refused tuples")
          if (ref.length > before) {
            if (before == capacity) { capacity *= 2; head = 0 }
            if (head + before >= capacity) wraps += 1
            if (refRefused > 0) partial += 1
          } else if (work > 0) full += 1
        } else {
          // Now and then stop 0.5e-12 short of the head cohort's end: drain
          // takes a fraction of it, yet what is left is small enough to pop.
          val nearlyHead = before > 0 && rng.nextInt(10) == 0
          val cap =
            if (nearlyHead) ref.headWork - 0.5e-12
            else if (rng.nextInt(10) == 0) 0.5 * rng.nextDouble() else 1e-3 * rng.nextDouble()
          same(task.drain(cap, now, stats), ref.drain(cap, now, refStats), s"step $step: completed")
          head = (head + before - ref.length) % capacity
          if (before - ref.length >= 10) longDrains += 1
          if (nearlyHead && cap > 1e-12 && ref.length < before) splitPops += 1
        }
        peak = math.max(peak, ref.length)
        same(task.queuedWork, ref.queuedWork, s"step $step: queuedWork")
        same(task.queuedTuples, ref.queuedTuples, s"step $step: queuedTuples")
        same(task.drainedWork, ref.drainedWork, s"step $step: drainedWork")
      }
      same(stats.tuples, refStats.tuples, "stats tuples")
      same(stats.latencySum, refStats.latencySum, "stats latencySum")
      for (q <- Seq(0.01, 0.1, 0.5, 0.9, 0.99, 1.0))
        same(stats.latencyQuantile(q), refStats.latencyQuantile(q), s"stats quantile $q")
    }
    assert(partial > 0 && full > 0, s"refusals: $partial partial, $full full")
    assert(longDrains > 0 && wraps > 0, s"$longDrains drains across 10+ cohorts, $wraps wrapped pushes")
    assert(splitPops > 100, s"$splitPops drains popped a cohort they took only part of")
    assert(peak > TaskRuntime.InitialCapacity, s"peak queue $peak cohorts never grew the ring")
  }

  /** The engine's step for one task and tick (`StreamSimulator.arrive`): a
    * cohort that [[TaskRuntime.takesWhole]] accepts completes at the call
    * site and is recorded; any other is enqueued (when there is
    * one) and the task drained. Returns the completed and refused tuples.
    */
  private def engineStep(task: TaskRuntime, now: Double, work: Double, tuples: Double,
                         cap: Double, end: Double, stats: CompletionStats): (Double, Double) =
    if (tuples > 0 && task.takesWhole(work, cap)) {
      task.completeWhole(work, tuples)
      val latency = math.max(0.0, end - now)
      stats.record(tuples, latency)
      (tuples, 0.0)
    } else {
      val refused = if (tuples > 0) task.enqueue(now, work, tuples) else 0.0
      (task.drain(cap, end, stats), refused)
    }

  test("the engine's per-task step equals enqueue then drain bit for bit") {
    // How often each case ran, over all seeds.
    var (emptyFits, equal, above, nonEmpty, partial, full) = (0, 0, 0, 0, 0, 0)
    forSeeds(300, seed = 4242L) { rng =>
      val (stepped, split) = (new TaskRuntime(0), new TaskRuntime(0))
      val (stats, splitStats) = (new CompletionStats, new CompletionStats)
      val ref = new TaskRuntimeReference // the ArrayDeque queue; also classifies each step
      val refStats = new CompletionStats
      def sameAll(what: String): Unit = {
        for ((name, a, b, r) <- Seq(
          ("queuedWork", stepped.queuedWork, split.queuedWork, ref.queuedWork),
          ("queuedTuples", stepped.queuedTuples, split.queuedTuples, ref.queuedTuples),
          ("drainedWork", stepped.drainedWork, split.drainedWork, ref.drainedWork))) {
          same(a, b, s"$what: $name")
          same(a, r, s"$what: reference $name")
        }
      }
      var now = 0.0
      for (step <- 0 until 200) {
        now += 1e-3 * rng.nextDouble()
        val cap = if (rng.nextInt(10) == 0) 0.5 * rng.nextDouble() else 1e-3 * (0.5 + rng.nextDouble())
        rng.nextInt(20) match {
          case 0 => // empty the queue
            val a = stepped.drain(5.0, now, stats)
            same(a, split.drain(5.0, now, splitStats), s"step $step: emptying drain")
            same(a, ref.drain(5.0, now, refStats), s"step $step: reference emptying drain")
          case 1 => // fill to the back-pressure cap, so the next step refuses everything
            val c = new Cohort(now, TaskRuntime.MaxQueueSec, 4e3)
            val a = stepped.enqueue(c)
            same(a, split.enqueue(c), s"step $step: fill")
            same(a, ref.enqueue(new Cohort(now, c.work, c.tuples)), s"step $step: reference fill")
          case k =>
            val work = k % 6 match {
              case 0 => 0.0
              case 1 => cap
              case 2 => cap * (1 + rng.nextDouble())
              case 3 => 1.5 * rng.nextDouble() // builds backlog, partial refusals
              case _ => cap * rng.nextDouble()
            }
            val tuples = work * 1e3 * (0.5 + rng.nextDouble())
            val end = now + 1e-3 * rng.nextDouble()
            val empty = ref.length == 0
            val admitted = work <= TaskRuntime.MaxQueueSec - ref.queuedWork
            val (done, refused) = engineStep(stepped, now, work, tuples, cap, end, stats)
            same(refused, split.enqueue(now, work, tuples), s"step $step: refused")
            same(done, split.drain(cap, end, splitStats), s"step $step: completed")
            same(refused, ref.enqueue(new Cohort(now, work, tuples)), s"step $step: reference refused")
            same(done, ref.drain(cap, end, refStats), s"step $step: reference completed")
            if (empty && work > 0 && admitted && work < cap) emptyFits += 1
            if (empty && work > 0 && work == cap) equal += 1
            if (work > cap) above += 1
            if (!empty) nonEmpty += 1
            if (refused > 0 && refused < tuples) partial += 1
            if (work > 0 && refused == tuples) full += 1
        }
        sameAll(s"step $step")
      }
      for ((name, other) <- Seq("enqueue then drain" -> splitStats, "reference" -> refStats)) {
        same(stats.tuples, other.tuples, s"$name: stats tuples")
        same(stats.latencySum, other.latencySum, s"$name: stats latencySum")
        for (q <- Seq(0.01, 0.1, 0.5, 0.9, 0.99, 1.0))
          same(stats.latencyQuantile(q), other.latencyQuantile(q), s"$name: stats quantile $q")
      }
    }
    val cases = Seq("empty queue, work fits" -> emptyFits, "work equals capacity" -> equal,
      "work above capacity" -> above, "non-empty queue" -> nonEmpty,
      "partial refusal" -> partial, "full refusal" -> full)
    assert(cases.forall(_._2 > 100), cases.mkString(", "))
  }

  test("CompletionStats mean and quantile") {
    val s = new CompletionStats
    s.record(99, 0.001)
    s.record(1, 10.0)
    assert(math.abs(s.meanLatency - (99 * 0.001 + 10.0) / 100) < 1e-9)
    assert(s.latencyQuantile(0.5) < 0.002)
    assert(s.latencyQuantile(0.999) > 5.0)
  }

  test("CompletionStats addFrom merges histograms") {
    val a = new CompletionStats
    val b = new CompletionStats
    a.record(10, 0.001)
    b.record(10, 1.0)
    a.addFrom(b)
    assert(a.tuples == 20)
    assert(a.latencyQuantile(0.99) > 0.5)
  }

  private def op = OperatorSpec("op", 1e-3, 128, 128, 1024)

  test("ExecutorRuntime computes imbalance from task shares") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0, initialTaskNodes = IndexedSeq(0, 0))
    rt.setShardWeights(Array(0.7, 0.1, 0.1, 0.1))
    // round-robin map: shards 0,2 -> task0 (0.8), shards 1,3 -> task1 (0.2)
    assert(math.abs(rt.imbalance - 1.6) < 1e-9)
  }

  test("ExecutorRuntime remoteShare counts only remote task shares") {
    val rt = new ExecutorRuntime(op, numShards = 2, localNode = 0, initialTaskNodes = IndexedSeq(0, 1))
    rt.setShardWeights(Array(0.5, 0.5))
    assert(math.abs(rt.remoteShare - 0.5) < 1e-9)
  }

  test("ExecutorRuntime paused shards leave the routing shares") {
    val rt = new ExecutorRuntime(op, numShards = 2, localNode = 0, initialTaskNodes = IndexedSeq(0))
    rt.setShardWeights(Array(0.6, 0.4))
    rt.pause(1)
    assert(math.abs(rt.taskShare(0) - 0.6) < 1e-9)
    assert(math.abs(rt.totalShare - 1.0) < 1e-9, "totalShare still counts paused arrivals")
  }

  test("ExecutorRuntime fails loudly on a shard map that points past its tasks") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0, initialTaskNodes = IndexedSeq(0, 0))
    rt.pause(3)
    intercept[IllegalArgumentException](rt.resume(3, 2))
    intercept[IllegalArgumentException](rt.resume(3, -1))
    intercept[IllegalArgumentException](rt.remap(IndexedSeq(1, 0, 1, 2)))
    assert(rt.shardMap == IndexedSeq(0, 1, 0, 1), "a rejected index leaves the map as it was")
  }

  test("ExecutorRuntime shard map starts round-robin") {
    val rt = new ExecutorRuntime(op, numShards = 8, localNode = 0, initialTaskNodes = IndexedSeq(0, 0, 0))
    assert(rt.shardMap == IndexedSeq(0, 1, 2, 0, 1, 2, 0, 1))
    assert((0 until 8).map(rt.taskOf) == rt.shardMap)
  }

  test("ExecutorRuntime resume moves one shard only") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0, initialTaskNodes = IndexedSeq(0, 0))
    rt.pause(3)
    assert(rt.isPaused(3) && !rt.isPaused(2))
    rt.resume(3, 0)
    assert(rt.taskOf(3) == 0 && !rt.isPaused(3))
    assert(rt.shardMap == IndexedSeq(0, 1, 0, 0), "only shard 3 moved")
  }

  test("ExecutorRuntime remap installs a full map") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0, initialTaskNodes = IndexedSeq(0, 0))
    rt.remap(IndexedSeq(1, 1, 0, 0))
    assert(rt.shardMap == IndexedSeq(1, 1, 0, 0))
  }

  test("ExecutorRuntime remap rejects a wrong length") {
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0, initialTaskNodes = IndexedSeq(0, 0))
    intercept[IllegalArgumentException](rt.remap(IndexedSeq(0, 1)))
  }

  test("ExecutorRuntime rejects no shards or no tasks") {
    intercept[IllegalArgumentException](new ExecutorRuntime(op, 0, 0, IndexedSeq(0)))
    intercept[IllegalArgumentException](new ExecutorRuntime(op, 4, 0, IndexedSeq.empty))
    val rt = new ExecutorRuntime(op, numShards = 4, localNode = 0, initialTaskNodes = IndexedSeq(0))
    intercept[IllegalArgumentException](rt.replaceTasks(Nil))
  }

  /** The cached shares recomputed from scratch: `(taskShare, totalShare,
    * remoteShare)` over the current weights, pauses, shard map and tasks.
    */
  private def freshShares(rt: ExecutorRuntime): (Seq[Double], Double, Double) = {
    val share = new Array[Double](rt.tasks.length)
    var total = 0.0
    for (s <- 0 until rt.numShards) {
      total += rt.shardWeight(s)
      if (!rt.isPaused(s)) share(rt.taskOf(s)) += rt.shardWeight(s)
    }
    var remote = 0.0
    for (t <- rt.tasks.indices if rt.tasks(t).node != rt.localNode) remote += share(t)
    (share.toSeq, total, remote)
  }

  private def assertCacheFresh(rt: ExecutorRuntime, after: String): Unit =
    assert((rt.taskShare.toSeq, rt.totalShare, rt.remoteShare) == freshShares(rt),
      s"cached shares stale after $after")

  test("ExecutorRuntime cached shares equal a fresh recomputation after every change") {
    forSeeds(300) { rng =>
      val z = 1 + rng.nextInt(64)
      val nodes = 1 + rng.nextInt(4)
      def taskNodes() = IndexedSeq.fill(1 + rng.nextInt(6))(rng.nextInt(nodes))
      val rt = new ExecutorRuntime(op, numShards = z, localNode = rng.nextInt(nodes),
        initialTaskNodes = taskNodes())
      val mutators = IndexedSeq[(String, () => Unit)](
        "a weight refresh" -> { () =>
          val offset = rng.nextInt(3) * z
          rt.setShardWeights(Array.fill(offset + z)(rng.nextDouble()), offset)
        },
        "a pause" -> (() => rt.pause(rng.nextInt(z))),
        "an unpause" -> (() => rt.resume(rng.nextInt(z), rng.nextInt(rt.tasks.length))),
        "a task-set change" -> (() => rt.replaceTasks(taskNodes().map(new TaskRuntime(_)))),
        "a remap" -> (() => rt.remap(IndexedSeq.fill(z)(rng.nextInt(rt.tasks.length)))))
      // One change between two reads, each mutator in turn.
      for ((what, change) <- mutators) {
        change()
        assertCacheFresh(rt, what)
      }
      // Several random changes between two reads, as one control step makes them.
      for (_ <- 1 to 8) {
        val picked = Seq.fill(1 + rng.nextInt(6))(mutators(rng.nextInt(mutators.length)))
        picked.foreach(_._2())
        assertCacheFresh(rt, picked.map(_._1).mkString(", "))
      }
    }
  }

  test("ClusterSpec transfer time includes latency and bandwidth") {
    val c = ClusterSpec(2, 8, networkBytesPerSec = 100e6)
    assert(c.transferSec(0) == 0.0)
    assert(math.abs(c.transferSec(100e6) - (c.networkLatencySec + 1.0)) < 1e-9)
    assert(c.totalCores == 16)
  }
}
