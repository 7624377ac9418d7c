package repro.sim

import org.scalatest.funsuite.AnyFunSuite

/** Bounds the error of the fixed tick (ROADMAP item 4) on the
  * `GoldenBehaviourSpec` run ([[GoldenRun]]): halving `tickSec` from 1 ms to
  * 0.5 ms must leave throughput, migration bytes and remote bytes within 0.1%
  * and every protocol count equal, under all four controllers.
  *
  * Mean latency is deliberately not bounded: it is not tick-invariant (it
  * falls by about 2 ms per 1 ms of tick on this 2-operator path; DESIGN.md
  * §6 has the measurements).
  */
class TickSensitivitySpec extends AnyFunSuite {

  private def relDiff(a: Double, b: Double): Double =
    if (a == b) 0.0 else math.abs(a - b) / math.max(math.abs(a), math.abs(b))

  for ((name, paradigm) <- GoldenRun.controllers)
    test(s"$name: halving the tick moves throughput and bytes by under 0.1% and no count") {
      val (coarse, fine) = (GoldenRun.atOneMs(paradigm), GoldenRun.run(paradigm, 0.5e-3))
      for ((metric, f) <- Seq[(String, SimResult => Double)](
             "throughput" -> (_.throughput),
             "migration bytes" -> (_.totalMigrationBytes),
             "remote bytes" -> (_.totalRemoteBytes)))
        assert(relDiff(f(coarse), f(fine)) < 1e-3, s"$metric: ${f(coarse)} at 1 ms vs ${f(fine)} at 0.5 ms")
      assert(coarse.moves.length == fine.moves.length)
      assert(coarse.repartitions.length == fine.repartitions.length)
      assert(coarse.schedulerMillis.length == fine.schedulerMillis.length)
    }
}
