package repro.bench

import repro.SparkSpec
import repro.experiments.Experiments

/** Fig. 6 shape: throughput and latency of the three paradigms as workload
  * dynamics ω (key shuffles/minute) varies. The paper's headline plot:
  * static is uniformly poor; RC matches Elasticutor at ω=0 but its latency
  * explodes 2–3 orders of magnitude as ω grows (useless by ω=16);
  * Elasticutor degrades only marginally.
  *
  * The 12 (approach, ω) points are fanned out over the local Spark cluster,
  * one simulation per task.
  */
class Fig6ShapeBench extends SparkSpec {

  private lazy val rows =
    Experiments.fig6Sweep(spark).map(r => (r.label, r.param) -> r).toMap

  private def lat(a: String, o: Double) = rows((a, o)).meanLatencySec
  private def thr(a: String, o: Double) = rows((a, o)).throughput

  test("Fig 6: print measured sweep") {
    Experiments.printFig6(rows.values.toSeq)
  }

  test("Elasticutor latency stays flat across omega (paper: marginal degradation)") {
    assert(lat("Elasticutor", 16) < lat("Elasticutor", 0) * 5,
      s"omega16 ${lat("Elasticutor", 16)} vs omega0 ${lat("Elasticutor", 0)}")
    assert(lat("Elasticutor", 16) < 0.05, s"${lat("Elasticutor", 16)}s")
  }

  test("RC matches Elasticutor at omega 0 but collapses as omega grows") {
    assert(lat("RC", 0) < lat("Elasticutor", 0) * 2 + 0.005)
    assert(lat("RC", 16) > lat("Elasticutor", 16) * 20,
      s"RC ${lat("RC", 16)} vs EC ${lat("Elasticutor", 16)}")
  }

  test("RC latency grows monotonically with omega") {
    assert(lat("RC", 2) >= lat("RC", 0))
    assert(lat("RC", 8) >= lat("RC", 2))
    assert(lat("RC", 16) >= lat("RC", 8))
  }

  test("static latency is far above Elasticutor at every omega") {
    Experiments.fig6Omegas.foreach { o =>
      assert(lat("static", o) > lat("Elasticutor", o) * 10,
        s"omega $o: static ${lat("static", o)} vs EC ${lat("Elasticutor", o)}")
    }
  }

  test("RC becomes worse than static at high omega (paper crossover)") {
    assert(lat("RC", 16) > lat("static", 16),
      s"RC ${lat("RC", 16)} vs static ${lat("static", 16)}")
  }

  test("Elasticutor throughput is highest or tied at every omega") {
    Experiments.fig6Omegas.foreach { o =>
      assert(thr("Elasticutor", o) >= thr("static", o) * 0.99)
      assert(thr("Elasticutor", o) >= thr("RC", o) * 0.95)
    }
  }
}
