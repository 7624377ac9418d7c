package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments
import repro.sim.SweepDriver

/** Fig. 6 shape: throughput and latency of static / RC / Elasticutor as
  * workload dynamics ω varies. Points are fanned out over the local Spark
  * cluster (one simulation per task).
  *
  * Run: `sbt "runMain repro.jobs.MicroBenchJob"`.
  */
object MicroBenchJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder().appName("microbench")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    val points = for {
      approach <- Experiments.fig6Approaches
      omega <- Experiments.fig6Omegas
    } yield (approach, omega)
    val df = SweepDriver.sweep(spark, points, { case (approach, omega) =>
      val row = Experiments.fig6Point(approach, omega)
      SweepDriver.SweepRow(approach, omega, row.throughput, row.meanLatencySec, 0, 0, 0)
    })
    println("== Fig. 6 shape (micro-benchmark, 8 nodes) ==")
    df.orderBy("label", "param").show(50, truncate = false)
    spark.stop()
  }
}
