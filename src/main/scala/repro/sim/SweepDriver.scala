package repro.sim

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

/** Fans a parameter sweep out over the Spark cluster: one simulation per
  * task. Simulations are CPU-bound and independent, which is exactly the
  * shape Spark's scheduler is good at; result rows come back, already
  * computed, as a DataFrame for SQL-side analysis.
  */
object SweepDriver {

  /** One sweep point's summary. */
  final case class SweepRow(label: String,
                            param: Double,
                            throughput: Double,
                            meanLatencySec: Double,
                            p99LatencySec: Double,
                            migrationMBps: Double,
                            remoteMBps: Double)

  val schema: StructType = StructType(Seq(
    StructField("label", StringType),
    StructField("param", DoubleType),
    StructField("throughput", DoubleType),
    StructField("mean_latency_sec", DoubleType),
    StructField("p99_latency_sec", DoubleType),
    StructField("migration_mb_per_sec", DoubleType),
    StructField("remote_mb_per_sec", DoubleType)))

  /** Decode a [[sweep]] result back into its rows (in the DataFrame's order). */
  def rows(df: DataFrame): Seq[SweepRow] =
    df.collect().toSeq.map(r => SweepRow(r.getAs[String]("label"), r.getAs[Double]("param"),
      r.getAs[Double]("throughput"), r.getAs[Double]("mean_latency_sec"),
      r.getAs[Double]("p99_latency_sec"), r.getAs[Double]("migration_mb_per_sec"),
      r.getAs[Double]("remote_mb_per_sec")))

  /** Run `points` in parallel on the Spark cluster. `mkRun` must be a pure
    * function of the point (it is serialised to executors); it builds and
    * runs one simulation and returns its result summary.
    *
    * The sweep runs eagerly: its rows are collected once, here, and the
    * returned DataFrame holds them locally in input order, so each point
    * runs exactly once whatever actions later read the DataFrame.
    */
  def sweep(spark: SparkSession,
            points: Seq[(String, Double)],
            mkRun: ((String, Double)) => SweepRow): DataFrame = {
    require(points.nonEmpty, "empty sweep")
    val rows = spark.sparkContext
      .parallelize(points, points.length)
      .map(p => {
        val r = mkRun(p)
        Row(r.label, r.param, r.throughput, r.meanLatencySec, r.p99LatencySec,
          r.migrationMBps, r.remoteMBps)
      })
      .collect()
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), schema)
  }

  /** Convenience: build the standard summary from a finished run. */
  def summarize(label: String, param: Double, r: SimResult): SweepRow =
    SweepRow(label, param, r.throughput, r.meanLatencySec, r.p99LatencySec,
      r.migrationRateBytesPerSec / 1e6, r.remoteRateBytesPerSec / 1e6)
}
