package repro.sse

import scala.collection.mutable

/** A limit order: bid (buy) or ask (sell) for `volume` shares of `stockId`
  * at limit price `priceTicks` (integer ticks keep matching exact).
  */
final case class Order(orderId: Long,
                       traderId: Long,
                       stockId: Long,
                       isBuy: Boolean,
                       priceTicks: Long,
                       volume: Long,
                       timeMs: Long) {
  require(volume > 0, s"order volume must be positive: $volume")
  require(priceTicks > 0, s"order price must be positive: $priceTicks")
}

/** A 160-byte transaction record (§5.4): time, shares, price, and the IDs
  * of seller, buyer and stock.
  */
final case class Transaction(timeMs: Long,
                             stockId: Long,
                             priceTicks: Long,
                             shares: Long,
                             buyerId: Long,
                             sellerId: Long)

/** Continuous-auction limit-order book for ONE stock — the transactor's
  * per-key state (§5.4: "the application performs the market clearing
  * mechanism of the stock exchange").
  *
  * Price-time priority: an incoming buy matches the lowest-priced resting
  * ask with price ≤ its bid (ties by arrival); trades execute at the resting
  * order's price, the usual continuous-auction rule. Unfilled remainder
  * rests in the book.
  */
final class OrderBook(val stockId: Long) {

  import OrderBook.Resting

  // Max-heap on price then FIFO for bids; min-heap on price then FIFO for asks.
  private val bids = mutable.PriorityQueue.empty[Resting](
    Ordering.by((r: Resting) => (r.order.priceTicks, -r.seq)))
  private val asks = mutable.PriorityQueue.empty[Resting](
    Ordering.by((r: Resting) => (-r.order.priceTicks, -r.seq)))
  private var seqCounter = 0L

  /** Resting depth (order count), for state-size accounting and tests. */
  def depth: Int = bids.size + asks.size

  /** Total unmatched volume resting in the book. */
  def restingVolume: Long = bids.iterator.map(_.remaining).sum + asks.iterator.map(_.remaining).sum

  /** Execute an incoming order against the book; returns the transactions
    * it produced, in execution order.
    */
  def execute(o: Order): List[Transaction] = {
    require(o.stockId == stockId, s"order for stock ${o.stockId} sent to book $stockId")
    var remaining = o.volume
    val fills = mutable.ListBuffer.empty[Transaction]
    if (o.isBuy) {
      while (remaining > 0 && asks.nonEmpty && asks.head.order.priceTicks <= o.priceTicks) {
        val best = asks.head
        val traded = math.min(remaining, best.remaining)
        fills += Transaction(o.timeMs, stockId, best.order.priceTicks, traded,
          buyerId = o.traderId, sellerId = best.order.traderId)
        remaining -= traded
        best.remaining -= traded
        if (best.remaining == 0) asks.dequeue()
      }
      if (remaining > 0) {
        seqCounter += 1
        bids.enqueue(Resting(o, remaining, seqCounter))
      }
    } else {
      while (remaining > 0 && bids.nonEmpty && bids.head.order.priceTicks >= o.priceTicks) {
        val best = bids.head
        val traded = math.min(remaining, best.remaining)
        fills += Transaction(o.timeMs, stockId, best.order.priceTicks, traded,
          buyerId = best.order.traderId, sellerId = o.traderId)
        remaining -= traded
        best.remaining -= traded
        if (best.remaining == 0) bids.dequeue()
      }
      if (remaining > 0) {
        seqCounter += 1
        asks.enqueue(Resting(o, remaining, seqCounter))
      }
    }
    fills.toList
  }

  /** Best bid/ask prices, if present (for spread-style analytics). */
  def bestBid: Option[Long] = bids.headOption.map(_.order.priceTicks)
  def bestAsk: Option[Long] = asks.headOption.map(_.order.priceTicks)
}

object OrderBook {
  private final case class Resting(order: Order, var remaining: Long, seq: Long)
}
