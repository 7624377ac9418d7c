package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments

/** Table 3 reproduction: Elasticutor throughput and scheduling time as the
  * cluster grows, SSE application. Paper numbers:
  *
  *   nodes                      8      16      32
  *   throughput (10³ t/s)    66.6   121.3   218.6
  *   scheduling time (ms)     4.1     5.2     5.7
  *
  * Shape: near-linear throughput scaling; scheduling cost stays at
  * milliseconds and grows only mildly with cluster size. The 64- and
  * 128-node rows go past the paper's table and are printed, not gated.
  */
class Table3Bench extends AnyFunSuite {

  private lazy val rows = Experiments.table3(Seq(8, 16, 32))
  private def at(n: Int) = rows.find(_.nodes == n).get
  private lazy val largeRows = Experiments.table3(Seq(64, 128))

  test("Table 3: print paper vs measured") {
    println("== Table 3 (SSE, Elasticutor): paper vs measured ==")
    println(f"${"nodes"}%-10s ${"paper thr (K t/s)"}%18s ${"measured thr"}%14s ${"paper sched (ms)"}%18s ${"measured sched"}%15s")
    val paperThr = Map(8 -> 66.6, 16 -> 121.3, 32 -> 218.6)
    val paperSched = Map(8 -> 4.1, 16 -> 5.2, 32 -> 5.7)
    rows.foreach { r =>
      println(f"${r.nodes}%-10d ${paperThr(r.nodes)}%18.1f ${r.throughputKTps}%14.1f ${paperSched(r.nodes)}%18.1f ${r.schedulingMs}%15.1f")
    }
    Experiments.printTable3(rows)
  }

  test("Table 3: print 64 and 128 nodes (beyond the paper, not gated)") {
    println("== Table 3 (SSE, Elasticutor): 64 and 128 nodes, not gated ==")
    Experiments.printTable3(largeRows)
  }

  test("throughput grows near-linearly with cluster size (paper: 3.3x at 4x nodes)") {
    val ratio16 = at(16).throughputKTps / at(8).throughputKTps
    val ratio32 = at(32).throughputKTps / at(8).throughputKTps
    assert(ratio16 > 1.6 && ratio16 < 2.4, s"8->16 nodes ratio $ratio16")
    assert(ratio32 > 3.0 && ratio32 < 4.4, s"8->32 nodes ratio $ratio32")
  }

  test("throughput is in the paper's order of magnitude") {
    assert(at(32).throughputKTps > 120 && at(32).throughputKTps < 400,
      s"32 nodes: ${at(32).throughputKTps} K t/s (paper 218.6)")
  }

  test("scheduling time stays at milliseconds (paper: 4-6 ms)") {
    rows.foreach(r => assert(r.schedulingMs < 50.0,
      s"${r.nodes} nodes: ${r.schedulingMs} ms"))
    assert(rows.forall(_.schedulingMs > 0))
  }
}
