package repro.jobs

import repro.experiments.Experiments

/** Fig. 8/9 shape: shard reassignment time breakdown (sync vs migration,
  * intra vs inter node) and RC synchronization growth with the number of
  * upstream executors.
  *
  * Run: `sbt "runMain repro.jobs.ReassignJob"`.
  */
object ReassignJob {
  def main(args: Array[String]): Unit =
    Experiments.printReassign(Experiments.reassignBreakdown(), Experiments.syncVsUpstream())
}
