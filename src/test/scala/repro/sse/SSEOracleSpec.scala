package repro.sse

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.api.{InMemoryKeyedState, StreamTuple}

/** End-to-end correctness of the SSE pipeline: the matching engine runs over
  * Spark-generated orders, and every analytics operator's result is checked
  * against DuckDB SQL over the same transaction records.
  */
class SSEOracleSpec extends SparkSpec {

  private lazy val ordersDf = SSEOrders.orders(spark, rows = 20000, numStocks = 50, seed = 11).cache()
  private lazy val orderSeq = SSEOrders.collectOrders(ordersDf)
  private lazy val txDf = SSEOrders.transactions(spark, orderSeq).cache()

  test("order generator is deterministic and well-formed") {
    val again = SSEOrders.orders(spark, rows = 20000, numStocks = 50, seed = 11)
    assert(ordersDf.count() == 20000)
    assert(again.exceptAll(ordersDf).isEmpty, "same (rows, seed) -> same orders")
    val bad = ordersDf.where(col("price_ticks") <= 0 || col("volume") <= 0 ||
      col("stock_id") < 1 || col("stock_id") > 50)
    assert(bad.isEmpty, "all orders within spec")
  }

  test("stock popularity is skewed (zipf-ish)") {
    val counts = ordersDf.groupBy("stock_id").count()
      .orderBy(desc("count")).collect().map(_.getAs[Long]("count"))
    assert(counts.head > counts.last * 3, s"head=${counts.head} last=${counts.last}")
  }

  test("matching engine produces a healthy number of transactions") {
    val n = txDf.count()
    assert(n > 5000, s"expected plenty of matches, got $n")
    assert(n < 40000)
  }

  test("transactions conserve volume per stock (vs DuckDB join)") {
    // Traded volume per stock == submitted minus resting; check the
    // internally-consistent half: 2*traded <= submitted.
    val traded = txDf.groupBy("stock_id").agg(sum("shares") as "traded")
    val submitted = ordersDf.groupBy("stock_id").agg(sum("volume") as "submitted")
    val joined = traded.join(submitted, "stock_id")
      .where(col("traded") * 2 > col("submitted"))
    assert(joined.isEmpty, "per stock, each share trades a buy against a sell")
  }

  test("per-stock VWAP matches DuckDB") {
    val sparkVwap = txDf.groupBy("stock_id")
      .agg((sum(col("price_ticks") * col("shares")) / sum(col("shares"))) as "vwap")
    // Oracle ingests columns as VARCHAR; cast explicitly on the DuckDB side.
    Oracle.assertEquivalent(
      sparkVwap,
      "SELECT CAST(stock_id AS BIGINT) AS stock_id, " +
        "SUM(CAST(price_ticks AS DOUBLE) * CAST(shares AS DOUBLE)) / " +
        "SUM(CAST(shares AS DOUBLE)) AS vwap FROM tx GROUP BY 1",
      "tx" -> txDf)
  }

  test("per-stock volume and trade count match DuckDB") {
    val sparkAgg = txDf.groupBy("stock_id").agg(
      sum("shares") as "volume",
      count(lit(1)) as "trades")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT CAST(stock_id AS BIGINT) AS stock_id, " +
        "SUM(CAST(shares AS BIGINT)) AS volume, COUNT(*) AS trades FROM tx GROUP BY 1",
      "tx" -> txDf)
  }

  test("per-stock min/max price matches DuckDB") {
    val sparkAgg = txDf.groupBy("stock_id").agg(
      min("price_ticks") as "min_price",
      max("price_ticks") as "max_price")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT CAST(stock_id AS BIGINT) AS stock_id, " +
        "MIN(CAST(price_ticks AS BIGINT)) AS min_price, " +
        "MAX(CAST(price_ticks AS BIGINT)) AS max_price FROM tx GROUP BY 1",
      "tx" -> txDf)
  }

  test("VwapBolt agrees with the SQL VWAP per stock") {
    val bolt = new VwapBolt
    val state = new InMemoryKeyedState
    SSEOrders.replay(orderSeq).foreach(t => bolt.process(StreamTuple(t.stockId, t), state))
    val sqlVwap = txDf.groupBy("stock_id")
      .agg((sum(col("price_ticks") * col("shares")) / sum(col("shares"))) as "vwap")
      .collect().map(r => r.getAs[Long]("stock_id") -> r.getAs[Double]("vwap")).toMap
    sqlVwap.foreach { case (stock, expected) =>
      val got = state.get[VwapBolt.Acc](stock)
      assert(got.isDefined, s"bolt state missing for stock $stock")
      assert(math.abs(got.get.vwap - expected) < 1e-6,
        s"stock $stock: bolt ${got.get.vwap} vs sql $expected")
    }
  }

  test("VolumeBolt cumulative volume agrees with SQL per stock") {
    val bolt = new VolumeBolt
    val state = new InMemoryKeyedState
    SSEOrders.replay(orderSeq).foreach(t => bolt.process(StreamTuple(t.stockId, t), state))
    val sqlVol = txDf.groupBy("stock_id").agg(sum("shares") as "v")
      .collect().map(r => r.getAs[Long]("stock_id") -> r.getAs[Long]("v")).toMap
    sqlVol.foreach { case (stock, expected) =>
      assert(state.get[Long](stock).contains(expected), s"stock $stock")
    }
  }

  test("matching is independent of interleaving across stocks (keyed determinism)") {
    // Per-key in-order processing (the paper's correctness requirement):
    // processing stocks in any global interleaving that preserves per-stock
    // order yields identical transactions.
    val byStockFirst = orderSeq.sortBy(o => (o.stockId, o.orderId))
    val a = SSEOrders.transactions(spark, orderSeq)
    val b = SSEOrders.transactions(spark, byStockFirst)
    val cols = Seq("stock_id", "price_ticks", "shares", "buyer_id", "seller_id")
    assert(a.select(cols.map(col): _*).exceptAll(b.select(cols.map(col): _*)).isEmpty)
    assert(b.select(cols.map(col): _*).exceptAll(a.select(cols.map(col): _*)).isEmpty)
  }
}
