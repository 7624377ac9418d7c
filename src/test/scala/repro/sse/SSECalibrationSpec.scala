package repro.sse

import org.scalatest.funsuite.AnyFunSuite
import repro.api.{InMemoryKeyedState, StreamTuple}

/** Calibration of the simulator's per-tuple CPU costs against the *real*
  * operator implementations. The modeled transactor cost (0.8 ms/order)
  * covers raw matching plus the framework overhead the paper's Storm
  * prototype pays per tuple (de/serialization, queue hops, acking); the
  * raw computation measured here must fit comfortably inside that budget,
  * and the analytics bolts must be an order of magnitude cheaper than the
  * transactor — the cost *structure* the SSE workload encodes.
  */
class SSECalibrationSpec extends AnyFunSuite {

  private def timePerOp[T](n: Int)(op: Int => T): Double = {
    val t0 = System.nanoTime()
    var i = 0
    while (i < n) { op(i); i += 1 }
    (System.nanoTime() - t0) / 1e9 / n
  }

  private def mkOrders(n: Int, stocks: Int, seed: Long): IndexedSeq[Order] = {
    val rng = new scala.util.Random(seed)
    IndexedSeq.tabulate(n) { i =>
      Order(i, rng.nextInt(5000) + 1, rng.nextInt(stocks) + 1, rng.nextBoolean(),
        1000 + rng.nextInt(21) - 10, rng.nextInt(900) + 100, i)
    }
  }

  test("raw matching cost fits inside the modeled 0.8 ms transactor budget") {
    val bolt = new TransactorBolt
    val state = new InMemoryKeyedState
    val orders = mkOrders(50000, stocks = 100, seed = 3)
    orders.take(10000).foreach(o => bolt.process(StreamTuple(o.stockId, o), state)) // warm JIT
    val perOrder = timePerOp(40000)(i =>
      bolt.process(StreamTuple(orders(10000 + i % 40000).stockId, orders(10000 + i % 40000)), state))
    assert(perOrder < SSEWorkload.TransactorCostSec,
      f"raw matching $perOrder%.2e s/order must fit in the 0.8 ms model budget")
  }

  test("analytics bolts are far cheaper than the transactor (cost structure)") {
    val state = new InMemoryKeyedState
    val vwap = new VwapBolt
    val tx = Transaction(0, 7, 1000, 100, 1, 2)
    (1 to 10000).foreach(_ => vwap.process(StreamTuple(7, tx), state)) // warm
    val perTx = timePerOp(100000)(_ => vwap.process(StreamTuple(7, tx), state))
    assert(perTx < SSEWorkload.StatsCostSec,
      f"vwap $perTx%.2e s/tx must fit in the 0.04 ms stats budget")
  }

  test("book depth stays bounded under balanced two-sided flow") {
    // Sanity for the state-size model: resting state doesn't grow without
    // bound when buys and sells are symmetric around the spread.
    val book = new OrderBook(1)
    val orders = mkOrders(20000, stocks = 1, seed = 9).map(_.copy(stockId = 1))
    orders.foreach(book.execute)
    assert(book.depth < 20000 / 2, s"depth ${book.depth} should stay well below order count")
  }
}
