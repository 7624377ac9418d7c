package repro.sim

import repro.SparkSpec
import repro.workload.MicroBenchWorkload

/** The Spark fan-out of simulation sweeps. */
class SweepDriverSpec extends SparkSpec {

  private lazy val result: SimResult = {
    val cluster = ClusterSpec(2, 8)
    val cfg = SimConfig(cluster, Paradigm.ExecutorCentric(), executorsPerOp = 4,
      shardsPerExecutor = 16, executorsPerOpOverride = Map("sink" -> 2),
      durationSec = 20, warmupSec = 5)
    new StreamSimulator(cfg, new MicroBenchWorkload(6000, 4, zipfSkew = 1.0)).run()
  }

  test("SweepDriver runs points on the Spark cluster and labels them") {
    val mkRow = (label: String, p: Double) =>
      SweepDriver.SweepRow(label, p, p * 100, p + 0.1, p + 0.2, p + 0.3, p + 0.4)
    val df = SweepDriver.sweep(spark, Seq(("a", 1.0), ("b", 2.0)), { case (label, p) => mkRow(label, p) })
    assert(SweepDriver.rows(df.orderBy("label")) == Seq(mkRow("a", 1.0), mkRow("b", 2.0)))
  }

  test("SweepDriver runs each point once and keeps the input order") {
    val runs = spark.sparkContext.longAccumulator("sweep runs")
    val points = Seq(("c", 3.0), ("a", 1.0), ("d", 4.0), ("b", 2.0))
    val mkRow = (label: String, p: Double) => SweepDriver.SweepRow(label, p, p, p, p, p, p)
    val df = SweepDriver.sweep(spark, points, { case (label, p) => runs.add(1); mkRow(label, p) })
    assert(df.count() == points.length)
    assert(SweepDriver.rows(df) == points.map { case (label, p) => mkRow(label, p) })
    assert(runs.sum == points.length, s"${runs.sum} runs for ${points.length} points")
  }

  test("SweepDriver.summarize lifts a SimResult") {
    val s = SweepDriver.summarize("x", 3.0, result)
    assert(s.label == "x" && s.param == 3.0)
    assert(s.throughput == result.throughput)
    assert(s.migrationMBps == result.migrationRateBytesPerSec / 1e6)
  }
}
