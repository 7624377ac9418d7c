package perfbench

import repro.experiments.Experiments
import repro.sim.{Paradigm, StreamSimulator}

/** The benchmark's own tests, run with `python3 perfbench/run.py --self-check`.
  *
  *  - The timing wrapper is invisible: a run through [[TimedWorkload]] gives
  *    the same behaviour as a bare run.
  *  - The configs mirror `Experiments`: at the default seeds they reproduce
  *    `table2`, `table3` and `fig6Point` exactly.
  *
  * Exits non-zero if any check fails.
  */
object SelfCheck {
  private var failures = 0

  private def check(name: String)(body: => Seq[String]): Unit = {
    val t0 = System.nanoTime()
    val problems = try body catch { case e: Throwable => Seq(Main.describe(e)) }
    val s = (System.nanoTime() - t0) / 1e9
    if (problems.isEmpty) println(f"PASS  $name ($s%.1f s)")
    else {
      failures += 1
      println(f"FAIL  $name ($s%.1f s)")
      problems.foreach(p => println(s"      $p"))
    }
  }

  private def same(what: String, expected: Double, actual: Double): Seq[String] =
    if (expected == actual) Nil else Seq(s"$what: Experiments gives $expected, benchmark config gives $actual")

  def main(args: Array[String]): Unit = {
    val sseSeed = Scenarios.sseDefaultSeed
    val microSeed = Scenarios.microDefaultSeed

    check("wrapped and bare micro runs behave identically") {
      val cfg = Scenarios.fig6Config("Elasticutor", 8, Scenarios.fig6DurationSec)
      val bare = new StreamSimulator(cfg, Scenarios.fig6Workload(16, 8, microSeed)).run()
      val timed = new TimedWorkload(Scenarios.fig6Workload(16, 8, microSeed))
      val wrapped = new StreamSimulator(cfg, timed).run()
      val calls = if (timed.rateCalls > 0 && timed.advanceCalls > 0 && timed.weightCalls > 0) Nil
        else Seq("wrapper saw no calls")
      calls ++ (if (SimBehaviour.of(bare) == SimBehaviour.of(wrapped)) Nil else Seq("behaviour differs"))
    }

    check("wrapped and bare SSE runs behave identically") {
      val cfg = Scenarios.sseConfig(8, Paradigm.ExecutorCentric(), 15.0)
      val bare = new StreamSimulator(cfg, Scenarios.sseWorkload(8, Scenarios.table3Load, sseSeed)).run()
      val wrapped = new StreamSimulator(cfg,
        new TimedWorkload(Scenarios.sseWorkload(8, Scenarios.table3Load, sseSeed))).run()
      if (SimBehaviour.of(bare) == SimBehaviour.of(wrapped)) Nil else Seq("behaviour differs")
    }

    check("SSE 32-node config reproduces Experiments.table3(Seq(32)) throughput") {
      val d = Scenarios.table3DurationSec
      val row = Experiments.table3(Seq(32), d).head
      val r = new StreamSimulator(Scenarios.sseConfig(32, Paradigm.ExecutorCentric(), d),
        Scenarios.sseWorkload(32, Scenarios.table3Load, sseSeed)).run()
      same("throughput (10^3 tuples/s)", row.throughputKTps, r.throughput / 1e3)
    }

    check("SSE config reproduces Experiments.table2(32) Elasticutor migration and remote rates") {
      // table3's rows carry no migration rate; table2 builds the same SSE
      // config and workload (at load 0.6, 40 s) and reports it.
      val row = Experiments.table2(32, 40.0).find(_.approach == "Elasticutor").get
      val r = new StreamSimulator(Scenarios.sseConfig(32, Paradigm.ExecutorCentric(), 40.0),
        Scenarios.sseWorkload(32, 0.6, sseSeed)).run()
      same("migration MB/s", row.migrationMBps, r.migrationRateBytesPerSec / 1e6) ++
        same("remote MB/s", row.remoteMBps, r.remoteRateBytesPerSec / 1e6) ++
        same("throughput", row.throughput, r.throughput)
    }

    for (approach <- Experiments.fig6Approaches)
      check(s"fig6 config reproduces Experiments.fig6Point($approach, 16, 8)") {
        val d = Scenarios.fig6DurationSec
        val row = Experiments.fig6Point(approach, 16, 8, d)
        val r = new StreamSimulator(Scenarios.fig6Config(approach, 8, d),
          Scenarios.fig6Workload(16, 8, microSeed)).run()
        same("throughput", row.throughput, r.throughput) ++
          same("mean latency", row.meanLatencySec, r.meanLatencySec)
      }

    println(if (failures == 0) "self-check passed" else s"self-check: $failures failed")
    System.exit(if (failures == 0) 0 else 1)
  }
}
