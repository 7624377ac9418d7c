package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments
import repro.sim.SweepDriver.SweepRow

/** Pins the engine's exact output under all four controllers on one small
  * micro-benchmark run ([[GoldenRun]]: 4 nodes × 8 cores, ω = 16, 20
  * simulated s), under Elasticutor on one saturated SSE run in which granted
  * tasks wait for cores ([[GoldenRun.sseOversubscribed]]), and the rows of
  * all 12 Fig. 6 points (`Experiments.fig6Point`). The engine is
  * deterministic, so a refactor that claims to keep behaviour must keep
  * these values bit for bit; a change that moves them on purpose updates
  * them here and says why in EXPERIMENTS.md or CHANGES.md.
  *
  * The full per-second series of each run is pinned in
  * `golden-per-second.tsv` (one row per controller and second, doubles in
  * their shortest round-trip decimal form, so parsing them back is exact).
  */
class GoldenBehaviourSpec extends AnyFunSuite {
  import GoldenBehaviourSpec.Golden

  private def golden(r: SimResult): Golden =
    Golden(r.throughput, r.meanLatencySec, r.p99LatencySec, r.totalMigrationBytes, r.totalRemoteBytes,
      r.moves.length, r.repartitions.length, r.schedulerMillis.length)

  private val expected = Map(
    "static" ->
      Golden(23051.349513464007, 0.008987655654209847, 0.25118864315095824,
        0.0, 0.0, 0, 0, 0),
    "RC" ->
      Golden(23074.164960384085, 0.07392841844623989, 0.3981071705534969,
        458752.0, 0.0, 0, 5, 0),
    "Elasticutor" ->
      Golden(23040.000000000196, 0.0021062859521344774, 0.0031622776601683794,
        3637248.0, 6235809.946974992, 243, 0, 19),
    "naive-EC" ->
      Golden(23039.999999999007, 0.0020843263753474828, 0.0012589254117941675,
        9076736.0, 1.0958206131711E8, 2381, 0, 19))

  /** Pinned per-second series, by controller name. */
  private lazy val expectedPerSecond: Map[String, IndexedSeq[SecondMetric]] = {
    val src = scala.io.Source.fromResource("repro/sim/golden-per-second.tsv")
    try src.getLines().filterNot(_.startsWith("#")).map(_.split('\t')).toIndexedSeq
      .map(f => f(0) -> SecondMetric(f(1).toInt, f(2).toDouble, f(3).toDouble, f(4).toDouble,
        f(5).toDouble, f(6).toDouble, f(7).toDouble))
      .groupMap(_._1)(_._2)
    finally src.close()
  }

  for ((name, paradigm) <- GoldenRun.controllers)
    test(s"$name reproduces its golden run exactly") {
      val r = GoldenRun.atOneMs(paradigm)
      assert(golden(r) == expected(name))
      assert(r.perSecond == expectedPerSecond(name))
    }

  test("Elasticutor on SSE at load 1.15 (8 nodes, oversubscribed nodes) reproduces its golden run exactly") {
    val r = GoldenRun.sseOversubscribed()
    assert(golden(r) == Golden(51885.68804357507, 3.314897411951974, 5.011872336272725,
      1310720.0, 6.288087864868128E7, 79, 0, 29))
    assert(r.deferredAssignments == 3)
    assert(r.perSecond == expectedPerSecond("SSE-Elasticutor"))
  }

  test("the 12 Fig. 6 points reproduce their golden rows exactly") {
    val rows = for (a <- Experiments.fig6Approaches; o <- Experiments.fig6Omegas) yield Experiments.fig6Point(a, o)
    assert(rows == Seq(
      SweepRow("static", 0.0, 45407.901819768056, 0.1618534390349326, 5.011872336272725, 0.0, 0.0),
      SweepRow("static", 2.0, 45686.6317121342, 0.1564029504203866, 5.011872336272725, 0.0, 0.0),
      SweepRow("static", 8.0, 46020.85166175026, 0.10252008018982009, 2.5118864315095824, 0.0, 0.0),
      SweepRow("static", 16.0, 45993.19619581904, 0.06248078298957595, 1.2589254117941662, 0.0, 0.0),
      SweepRow("RC", 0.0, 46079.999999999716, 0.001999999999999223, 0.0012589254117941675, 0.0, 0.0),
      SweepRow("RC", 2.0, 46079.999999997686, 0.011608913524706376, 0.3981071705534969, 0.024576, 0.0),
      SweepRow("RC", 8.0, 46079.999999997955, 0.06593097451080712, 0.630957344480193, 0.094208, 0.0),
      SweepRow("RC", 16.0, 46292.8263189714, 0.18505259939759489, 0.7943282347242822, 0.1540096, 0.0),
      SweepRow("Elasticutor", 0.0, 46080.00000000238, 0.001999999999999178, 0.0012589254117941675, 0.0, 0.0),
      SweepRow("Elasticutor", 2.0, 46080.00000000408, 0.002033096451080915, 0.0012589254117941675,
        0.0032768000000000003, 0.057530672081459414),
      SweepRow("Elasticutor", 8.0, 46080.00000000113, 0.0021997818564810753, 0.0012589254117941675,
        0.15892479999999998, 0.5309624019181464),
      SweepRow("Elasticutor", 16.0, 46082.61506171253, 0.002496973983802825, 0.01584893192461114,
        0.6406144, 1.0900800679677645)))
  }
}

object GoldenBehaviourSpec {
  private final case class Golden(throughput: Double, meanLatencySec: Double, p99LatencySec: Double,
                                  migrationBytes: Double, remoteBytes: Double,
                                  moves: Int, repartitions: Int, schedulerCalls: Int)
}
