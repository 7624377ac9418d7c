package repro.sim

/** Physical substrate description for the simulated cluster.
  *
  * The paper's testbed is 32 EC2 t2.2xlarge nodes (8 cores, 32 GB) on
  * 1 Gbps Ethernet; those are the defaults here. All times are seconds,
  * all sizes bytes. The latencies are constants of the model.
  *
  * @param numNodes            cluster size n
  * @param coresPerNode        c_i (uniform)
  * @param networkBytesPerSec  point-to-point NIC bandwidth (1 Gbps ≈ 125 MB/s)
  */
final case class ClusterSpec(numNodes: Int,
                             coresPerNode: Int,
                             networkBytesPerSec: Double = 125.0e6) {
  require(numNodes > 0, s"numNodes must be positive: $numNodes")
  require(coresPerNode > 0, s"coresPerNode must be positive: $coresPerNode")
  require(networkBytesPerSec > 0, "network bandwidth must be positive")

  /** One-way message latency. */
  def networkLatencySec: Double = 0.5e-3
  /** Control round trip (pause/ack, routing update); the RC barrier pays it per upstream executor. */
  def controlRttSec: Double = 5.0e-3
  /** Fixed control overhead of one Elasticutor shard reassignment (~2 ms in §5.1). */
  def shardSyncOverheadSec: Double = 2.0e-3

  def totalCores: Int = numNodes * coresPerNode

  /** Time to push `bytes` across the network between two nodes. */
  def transferSec(bytes: Double): Double =
    if (bytes <= 0) 0.0 else networkLatencySec + bytes / networkBytesPerSec
}
