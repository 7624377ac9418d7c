package repro.sse

import repro.api.{ElasticBolt, KeyedState, StreamTuple}

/** The transactor operator (§5.4): keyed by stock id, executes each limit
  * order against that stock's book and emits one tuple per transaction.
  */
final class TransactorBolt extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val order = tuple.payload.asInstanceOf[Order]
    val book = state.get[OrderBook](tuple.key).getOrElse {
      val b = new OrderBook(tuple.key)
      state.put(tuple.key, b)
      b
    }
    book.execute(order).map(tx => StreamTuple(tuple.key, tx))
  }
}

/** Exponential/windowed moving average of the transaction price per stock. */
final class MovingAveragePriceBolt(window: Int = 32) extends ElasticBolt {
  require(window > 0, s"window must be positive: $window")
  import MovingAveragePriceBolt.Avg
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val prev = state.get[Avg](tuple.key).getOrElse(Avg(0.0, Vector.empty))
    val withNew = Avg(prev.sum + tx.priceTicks, prev.prices :+ tx.priceTicks)
    val next =
      if (withNew.prices.length > window)
        Avg(withNew.sum - withNew.prices.head, withNew.prices.tail)
      else withNew
    state.put(tuple.key, next)
    Seq(StreamTuple(tuple.key, next.value))
  }
}

object MovingAveragePriceBolt {
  final case class Avg(sum: Double, prices: Vector[Long]) {
    def value: Double = if (prices.isEmpty) 0.0 else sum / prices.length
  }
}

/** Cumulative traded volume per stock. */
final class VolumeBolt extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val v = state.get[Long](tuple.key).getOrElse(0L) + tx.shares
    state.put(tuple.key, v)
    Seq(StreamTuple(tuple.key, v))
  }
}

/** Volume-weighted average price per stock. */
final class VwapBolt extends ElasticBolt {
  import VwapBolt.Acc
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val a = state.get[Acc](tuple.key).getOrElse(Acc(0.0, 0L))
    val next = Acc(a.pv + tx.priceTicks.toDouble * tx.shares, a.vol + tx.shares)
    state.put(tuple.key, next)
    Seq(StreamTuple(tuple.key, next.vwap))
  }
}

object VwapBolt {
  final case class Acc(pv: Double, vol: Long) { def vwap: Double = if (vol == 0) 0.0 else pv / vol }
}

/** Running min/max transaction price per stock. */
final class MinMaxPriceBolt extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val (lo, hi) = state.get[(Long, Long)](tuple.key).getOrElse((Long.MaxValue, Long.MinValue))
    val next = (math.min(lo, tx.priceTicks), math.max(hi, tx.priceTicks))
    state.put(tuple.key, next)
    Seq(StreamTuple(tuple.key, next))
  }
}

/** Transactions seen per stock. */
final class TradeCountBolt extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val n = state.get[Long](tuple.key).getOrElse(0L) + 1
    state.put(tuple.key, n)
    Seq(StreamTuple(tuple.key, n))
  }
}

/** Composite index: capitalisation-style weighted sum of last prices. The
  * "key" here is a bucket of stocks; each bucket maintains Σ lastPrice.
  */
final class CompositeIndexBolt extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val last = state.get[Map[Long, Long]](tuple.key).getOrElse(Map.empty)
    val next = last.updated(tx.stockId, tx.priceTicks)
    state.put(tuple.key, next)
    Seq(StreamTuple(tuple.key, next.values.sum.toDouble / math.max(next.size, 1)))
  }
}

/** Event: alarm when the transaction price of a stock exceeds a threshold
  * (§5.4's example user-defined event).
  */
final class PriceAlarmBolt(thresholdTicks: Long) extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    if (tx.priceTicks > thresholdTicks) Seq(StreamTuple(tuple.key, ("PRICE_ALARM", tx))) else Nil
  }
}

/** Event: volume within the current window exceeds `surgeVolume`. */
final class VolumeSurgeBolt(surgeVolume: Long, windowMs: Long = 1000) extends ElasticBolt {
  import VolumeSurgeBolt.Win
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val w = state.get[Win](tuple.key).filter(w => tx.timeMs - w.startMs < windowMs)
      .getOrElse(Win(tx.timeMs, 0L))
    val next = Win(w.startMs, w.vol + tx.shares)
    state.put(tuple.key, next)
    if (next.vol > surgeVolume) Seq(StreamTuple(tuple.key, ("VOLUME_SURGE", next.vol))) else Nil
  }
}

object VolumeSurgeBolt {
  final case class Win(startMs: Long, vol: Long)
}

/** Event: price jumped more than `pct` between consecutive transactions. */
final class PriceJumpBolt(pct: Double) extends ElasticBolt {
  require(pct > 0, s"pct must be positive: $pct")
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val prev = state.get[Long](tuple.key)
    state.put(tuple.key, tx.priceTicks)
    prev match {
      case Some(p) if math.abs(tx.priceTicks - p).toDouble / p > pct =>
        Seq(StreamTuple(tuple.key, ("PRICE_JUMP", p, tx.priceTicks)))
      case _ => Nil
    }
  }
}

/** Event: a single trade larger than `shares`. Stateless. */
final class LargeTradeBolt(shares: Long) extends ElasticBolt {
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    if (tx.shares > shares) Seq(StreamTuple(tuple.key, ("LARGE_TRADE", tx))) else Nil
  }
}

/** Event: N consecutive upticks (momentum). */
final class MomentumBolt(run: Int = 3) extends ElasticBolt {
  require(run > 1, s"run must be > 1: $run")
  override def process(tuple: StreamTuple, state: KeyedState): Seq[StreamTuple] = {
    val tx = tuple.payload.asInstanceOf[Transaction]
    val (last, streak) = state.get[(Long, Int)](tuple.key).getOrElse((0L, 0))
    val nextStreak = if (last != 0 && tx.priceTicks > last) streak + 1 else 0
    state.put(tuple.key, (tx.priceTicks, nextStreak))
    if (nextStreak >= run) Seq(StreamTuple(tuple.key, ("MOMENTUM", nextStreak))) else Nil
  }
}
