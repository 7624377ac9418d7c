package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments

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
    Experiments.printFig6(Experiments.fig6Sweep(spark))
    spark.stop()
  }
}
