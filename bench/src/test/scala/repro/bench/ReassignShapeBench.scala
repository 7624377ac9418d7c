package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments

/** Fig. 8/9 shape: the cost anatomy of elasticity operations.
  *
  * Paper: Elasticutor's shard reassignment syncs in ~2 ms regardless of
  * topology (inter-operator independence); intra-node moves migrate no
  * state (intra-process sharing); RC's operator-level repartition pays a
  * global synchronization 2–3 orders of magnitude larger that grows with
  * the number of upstream executors.
  */
class ReassignShapeBench extends AnyFunSuite {

  private lazy val breakdown = Experiments.reassignBreakdown()
  private lazy val upstreamRows = Experiments.syncVsUpstream()

  private def row(approach: String, scope: String) =
    breakdown.find(r => r.approach == approach && r.scope == scope).get

  test("Fig 8: print measured breakdown") {
    Experiments.printReassign(breakdown, upstreamRows)
  }

  test("Elasticutor records both intra- and inter-node moves") {
    assert(row("Elasticutor", "intra-node").samples > 0)
    assert(row("Elasticutor", "inter-node").samples > 0)
  }

  test("intra-node moves migrate no state (intra-process sharing)") {
    assert(row("Elasticutor", "intra-node").migrateMs == 0.0)
  }

  test("inter-node moves pay a small state transfer") {
    val m = row("Elasticutor", "inter-node").migrateMs
    assert(m > 0.0 && m < 50.0, s"migrate $m ms for 32 KB state")
  }

  test("Elasticutor sync is near the 2 ms control overhead (paper: ~2 ms)") {
    assert(row("Elasticutor", "intra-node").syncMs < 50.0)
    assert(row("Elasticutor", "inter-node").syncMs < 50.0)
  }

  test("RC sync is orders of magnitude above Elasticutor (paper: 2-3 orders)") {
    val rc = row("RC", "operator-level").syncMs
    val ec = row("Elasticutor", "intra-node").syncMs
    assert(rc > ec * 10, s"RC $rc ms vs EC $ec ms")
  }

  test("Fig 9a: RC sync grows with upstream executors; Elasticutor is flat") {
    val rc = upstreamRows.map(_.rcSyncMs)
    assert(rc == rc.sorted, s"RC sync must grow: $rc")
    assert(rc.last > rc.head * 2, s"growth too weak: $rc")
    val ec = upstreamRows.map(_.ecSyncMs)
    assert(ec.max < ec.min * 3 + 5, s"Elasticutor sync must stay flat: $ec")
    upstreamRows.foreach(r => assert(r.rcSyncMs > r.ecSyncMs * 5,
      s"upstream ${r.upstream}: RC ${r.rcSyncMs} vs EC ${r.ecSyncMs}"))
  }
}
