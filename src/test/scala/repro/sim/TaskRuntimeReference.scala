package repro.sim

import scala.collection.mutable

/** Reference task queue: the direct FIFO of `Cohort` objects in an
  * `ArrayDeque`, one object per enqueue. `TaskRuntimeSpec` checks that
  * `TaskRuntime`'s primitive ring returns bit-equal results on random
  * enqueue/drain sequences.
  */
final class TaskRuntimeReference {
  private val queue = mutable.ArrayDeque.empty[Cohort]
  var queuedWork: Double = 0.0
  var queuedTuples: Double = 0.0
  var drainedWork: Double = 0.0

  /** Cohorts queued. */
  def length: Int = queue.length

  /** Work left in the head cohort. */
  def headWork: Double = queue.head.work

  def enqueue(c: Cohort): Double = {
    if (c.work <= 0) return 0.0
    val room = TaskRuntime.MaxQueueSec - queuedWork
    if (room <= 0) return c.tuples
    if (c.work <= room) {
      queue.append(c)
      queuedWork += c.work
      queuedTuples += c.tuples
      0.0
    } else {
      val frac = room / c.work
      val refused = c.tuples * (1 - frac)
      c.work = room
      c.tuples *= frac
      queue.append(c)
      queuedWork += c.work
      queuedTuples += c.tuples
      refused
    }
  }

  def drain(capacitySec: Double, nowSec: Double, stats: CompletionStats): Double = {
    var cap = capacitySec
    var completed = 0.0
    while (cap > 1e-12 && queue.nonEmpty) {
      val head = queue.head
      val take = math.min(head.work, cap)
      val frac = take / head.work
      val n = head.tuples * frac
      stats.record(n, math.max(0.0, nowSec - head.arrivalSec))
      completed += n
      head.work -= take
      head.tuples -= n
      queuedWork -= take
      queuedTuples -= n
      drainedWork += take
      cap -= take
      if (head.work <= 1e-12) queue.removeHead()
    }
    if (queuedWork < 0) queuedWork = 0
    if (queuedTuples < 0) queuedTuples = 0
    completed
  }
}
