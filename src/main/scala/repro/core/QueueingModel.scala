package repro.core

import scala.collection.immutable.ArraySeq

/** Queueing-theoretic performance model of §4.1.
  *
  * The topology is modelled as a Jackson network in which executor `j` with
  * `k_j` cores is an M/M/k_j queue. `E[T](k)` (Equation 1) is the
  * arrival-rate-weighted mean sojourn time; the scheduler grows the core
  * vector greedily along the steepest decrease of E[T] (the DRS rule, shown
  * optimal in Fu et al., ICDCS'15).
  */
object QueueingModel {

  /** Erlang-C: probability an arriving job must queue in an M/M/k system.
    * `a = λ/μ` is the offered load in Erlangs; requires a < k (stability).
    * Computed with a numerically stable running term (no factorials).
    */
  def erlangC(k: Int, a: Double): Double = {
    require(k >= 1, s"k must be >= 1: $k")
    require(a >= 0, s"offered load must be >= 0: $a")
    require(a < k, s"unstable system: offered load $a >= servers $k")
    if (a == 0.0) return 0.0
    // sum_{i=0}^{k-1} a^i/i!  and  a^k/k!, built incrementally.
    var term = 1.0
    var sum = 1.0
    var i = 1
    while (i < k) {
      term *= a / i
      sum += term
      i += 1
    }
    val termK = term * a / k
    val last = termK * k / (k - a)
    last / (sum + last)
  }

  /** Mean sojourn time E[T_j](k_j) of an M/M/k queue: service + wait.
    * @param lambda arrival rate (tuples/s)
    * @param mu     per-core service rate (tuples/s)
    * @param k      allocated cores
    * @return mean time in system (seconds); Double.PositiveInfinity when
    *         the system is unstable (λ ≥ k·μ)
    */
  def sojournTime(lambda: Double, mu: Double, k: Int): Double = {
    require(lambda >= 0, s"lambda must be >= 0: $lambda")
    require(mu > 0, s"mu must be positive: $mu")
    require(k >= 1, s"k must be >= 1: $k")
    if (lambda == 0.0) return 1.0 / mu
    val a = lambda / mu
    if (a >= k) return Double.PositiveInfinity
    val pWait = erlangC(k, a)
    1.0 / mu + pWait / (k * mu - lambda)
  }

  /** One executor's measured inputs to the model. Rates are per second,
    * as measured by the runtime over the last scheduling window.
    *
    * @param lambda arrival rate into the executor
    * @param mu     per-core processing rate (1 / mean CPU time per tuple)
    */
  final case class ExecutorLoad(lambda: Double, mu: Double) {
    require(mu > 0, s"mu must be positive: $mu")
    /** Minimum stable allocation ⌊λ/μ⌋ + 1 (§4.1). */
    def minCores: Int = (lambda / mu).toInt + 1
  }

  /** Equation (1): E[T](k) = (1/λ0) Σ_j λ_j E[T_j](k_j). */
  def topologyLatency(loads: IndexedSeq[ExecutorLoad], k: IndexedSeq[Int], lambda0: Double): Double = {
    require(loads.length == k.length, s"loads ${loads.length} != k ${k.length}")
    require(lambda0 > 0, s"lambda0 must be positive: $lambda0")
    var acc = 0.0
    var j = 0
    while (j < loads.length) {
      acc += loads(j).lambda * sojournTime(loads(j).lambda, loads(j).mu, k(j))
      j += 1
    }
    acc / lambda0
  }

  /** Result of the allocation step: the core vector and the predicted mean
    * latency; `feasible` is false when the latency target could not be met
    * within `totalCores` (the vector then holds the best-effort allocation,
    * or the stability minima when even those exceed `totalCores`).
    */
  final case class Allocation(cores: IndexedSeq[Int], predictedLatency: Double, feasible: Boolean)

  /** Greedy core allocation (§4.1): initialise each k_j at its stability
    * minimum, then repeatedly give one more core to the executor whose
    * increment lowers E[T] the most, until E[T] ≤ `latencyTarget` or the
    * budget `totalCores` is exhausted.
    *
    * λ0, Eq. (1)'s divisor, is today the largest executor λ, not the
    * external arrival rate the paper defines it as. It divides E[T] and
    * every increment's drop alike, so it decides when the growth stops and
    * what E[T] is predicted, never which executor grows. Making it the
    * external rate is a behaviour change (ROADMAP, open item 3).
    *
    * @param latencyTarget user latency SLO T_max in seconds
    * @param totalCores    available CPU cores in the cluster
    */
  def allocateCores(loads: IndexedSeq[ExecutorLoad], latencyTarget: Double, totalCores: Int): Allocation = {
    require(loads.nonEmpty, "no executors to allocate")
    require(latencyTarget > 0, s"latencyTarget must be positive: $latencyTarget")
    require(totalCores >= 1, s"totalCores must be >= 1: $totalCores")
    val k = new Array[Int](loads.length)
    val lambda0 = startAtMinima(loads, k)
    var total = 0
    var j = 0
    while (j < k.length) { total += k(j); j += 1 }
    val cores = ArraySeq.unsafeWrapArray(k) // k is not written once returned
    // Infeasible even at the stability minimum: hand back the minima as they
    // are, summing above `totalCores`; clipping them to the cluster is the
    // caller's job ([[DynamicScheduler]]). The paper's scheduler would be
    // operating an overloaded cluster here regardless of assignment.
    if (total > totalCores) {
      return Allocation(cores, Double.PositiveInfinity, feasible = false)
    }
    var latency = topologyLatency(loads, cores, lambda0)
    while (latency > latencyTarget && total < totalCores) {
      var bestJ = -1
      var bestDrop = 0.0
      var j = 0
      while (j < k.length) {
        val before = loads(j).lambda * sojournTime(loads(j).lambda, loads(j).mu, k(j))
        val after = loads(j).lambda * sojournTime(loads(j).lambda, loads(j).mu, k(j) + 1)
        val drop = (before - after) / lambda0
        if (drop > bestDrop) { bestDrop = drop; bestJ = j }
        j += 1
      }
      if (bestJ < 0) {
        // No increment helps (all executors already at negligible wait).
        return Allocation(cores, latency, feasible = latency <= latencyTarget)
      }
      k(bestJ) += 1
      total += 1
      latency -= bestDrop
    }
    Allocation(cores, latency, feasible = latency <= latencyTarget)
  }

  /** Sets `k` to the stability minima and returns λ0 = max(max_j λ_j, 1e-9),
    * in one pass. The max is `Ordering.Double.TotalOrdering`'s, as
    * `loads.map(_.lambda).max` takes it: NaN above +∞, +0.0 above −0.0, and
    * the first of equal values kept.
    */
  private[core] def startAtMinima(loads: IndexedSeq[ExecutorLoad], k: Array[Int]): Double = {
    var max = loads(0).lambda
    var j = 0
    while (j < k.length) {
      val load = loads(j)
      if (java.lang.Double.compare(load.lambda, max) > 0) max = load.lambda
      k(j) = load.minCores
      j += 1
    }
    math.max(max, 1e-9)
  }
}
