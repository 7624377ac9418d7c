package repro.sse

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Spark-side synthetic SSE limit-order generator (DESIGN.md §2: substitute
  * for the proprietary trace). Deterministic in (rows, seed) so the DuckDB
  * oracle sees identical input. Stock popularity is zipf-like via an
  * inverse-CDF draw over rank weights 1/k^α; prices random-walk around a
  * per-stock base so orders actually cross and trade.
  */
object SSEOrders {

  /** Columns: order_id, trader_id, stock_id, is_buy, price_ticks, volume, time_ms. */
  def orders(spark: SparkSession, rows: Long, numStocks: Int = 200,
             seed: Long = 11): DataFrame = {
    import spark.implicits._
    require(rows > 0 && numStocks > 0, s"bad generator args rows=$rows stocks=$numStocks")
    val alpha = 1.1
    val norm = (1L to numStocks.toLong).map(k => 1.0 / math.pow(k.toDouble, alpha)).sum
    spark.range(rows).select(
      $"id" as "order_id",
      (rand(seed) * 5000 + 1).cast(LongType) as "trader_id",
      least(lit(numStocks.toLong), greatest(lit(1L),
        pow(lit(1.0) / (rand(seed + 1) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
      )) as "stock_id",
      (rand(seed + 2) < 0.5) as "is_buy",
      lit(0L) as "price_base", // filled below; kept for column order clarity
      (rand(seed + 3) * 900 + 100).cast(LongType) as "volume",
      ($"id" / 10).cast(LongType) as "time_ms",
    ).withColumn("price_ticks",
      // base price 1000 + 7·stock, ±10 tick noise around it.
      (lit(1000) + col("stock_id") * 7 +
        (rand(seed + 4) * 21).cast(LongType) - 10).cast(LongType))
      .drop("price_base")
      .select("order_id", "trader_id", "stock_id", "is_buy", "price_ticks", "volume", "time_ms")
  }

  /** Collect a generated order DataFrame into matching-engine input, ordered
    * by arrival (order_id) — the per-key in-order contract.
    */
  def collectOrders(df: DataFrame): Seq[Order] =
    df.orderBy("order_id").collect().toSeq.map { r =>
      Order(
        orderId = r.getAs[Long]("order_id"),
        traderId = r.getAs[Long]("trader_id"),
        stockId = r.getAs[Long]("stock_id"),
        isBuy = r.getAs[Boolean]("is_buy"),
        priceTicks = r.getAs[Long]("price_ticks"),
        volume = r.getAs[Long]("volume"),
        timeMs = r.getAs[Long]("time_ms"))
    }

  /** Run the full matching engine over `orders`, sequentially per stock in
    * arrival order — the semantics the distributed system must preserve.
    */
  def replay(orders: Seq[Order]): Seq[Transaction] = {
    val books = scala.collection.mutable.HashMap.empty[Long, OrderBook]
    orders.flatMap(o => books.getOrElseUpdate(o.stockId, new OrderBook(o.stockId)).execute(o))
  }

  /** [[replay]] `orders` and return the transactions as a DataFrame. */
  def transactions(spark: SparkSession, orders: Seq[Order]): DataFrame = {
    val txs = replay(orders)
    val schema = StructType(Seq(
      StructField("time_ms", LongType), StructField("stock_id", LongType),
      StructField("price_ticks", LongType), StructField("shares", LongType),
      StructField("buyer_id", LongType), StructField("seller_id", LongType)))
    val rows = txs.map(t =>
      Row(t.timeMs, t.stockId, t.priceTicks, t.shares, t.buyerId, t.sellerId))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toList, 4), schema)
  }
}
