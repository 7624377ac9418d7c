package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.CpuAssignment._
import scala.collection.immutable.ArraySeq
import scala.util.Random

class CpuAssignmentSpec extends AnyFunSuite with PropHelpers {

  private val MB = 1024.0 * 1024

  private def infos(n: Int, node: Int => Int, state: Double = 8 * MB,
                    intensity: Int => Double = _ => 0.0): IndexedSeq[ExecutorInfo] =
    IndexedSeq.tabulate(n)(j => ExecutorInfo(node(j), state, intensity(j)))

  test("Assignment.totalOf and usedOn") {
    val a = Assignment(IndexedSeq(IndexedSeq(1, 0), IndexedSeq(2, 3)))
    assert(a.totalOf(0) == 3)
    assert(a.totalOf(1) == 3)
    assert(a.usedOn(0) == 1)
    assert(a.usedOn(1) == 5)
  }

  test("oneCoreLocal places each executor's core on its local node") {
    val ex = infos(4, j => j % 2)
    val a = Assignment.oneCoreLocal(ex, numNodes = 2, coresPerNode = 4)
    assert(a.totalOf(0) == 1 && a.cores(0)(0) == 1)
    assert(a.cores(1)(1) == 1)
    assert(a.usedOn(0) == 2 && a.usedOn(1) == 2)
  }

  test("oneCoreLocal rejects over-capacity placement") {
    val ex = infos(3, _ => 0)
    intercept[IllegalArgumentException](Assignment.oneCoreLocal(ex, 2, 2))
  }

  test("oneCoreLocal equals the per-cell construction and fails with its messages") {
    var built, outOfRange, overCapacity = 0
    forSeeds(500) { rng =>
      val n = rng.nextInt(9)
      val perNode = rng.nextInt(6)
      // A local node of -1 or n is out of range.
      val ex = infos(rng.nextInt(30), _ => if (rng.nextInt(40) == 0) rng.nextInt(2) * (n + 1) - 1 else rng.nextInt(n max 1))
      def outcome(f: => Assignment): Either[String, Assignment] =
        try Right(f) catch { case e: IllegalArgumentException => Left(e.getMessage) }
      val got = outcome(Assignment.oneCoreLocal(ex, n, perNode))
      assert(got == outcome(CpuAssignmentReference.oneCoreLocal(ex, n, perNode)))
      got match {
        case Right(a) =>
          assert(a.numNodes == n && a.cores.forall(_.length == ex.length))
          built += 1
        case Left(msg) => if (msg.contains("out of range")) outOfRange += 1 else overCapacity += 1
      }
    }
    assert(Seq(built, outOfRange, overCapacity).forall(_ > 50),
      s"built $built out of range $outOfRange over capacity $overCapacity")
  }

  test("oneCoreLocal allocates little more than one copy of X̃ on 128 nodes × 608 executors") {
    val bean = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val (n, m) = (128, 608)
    val ex = infos(m, _ % n)
    for (_ <- 0 until 200) Assignment.oneCoreLocal(ex, n, 8)
    val tid = Thread.currentThread.getId
    val bytes = (0 until 5).map { _ =>
      val before = bean.getThreadAllocatedBytes(tid)
      Assignment.oneCoreLocal(ex, n, 8)
      bean.getThreadAllocatedBytes(tid) - before
    }
    info(s"bytes allocated per call: ${bytes.mkString(", ")}")
    assert(bytes.max < 1.25 * n * m * 4, s"allocated $bytes bytes")
  }

  test("migrationCostFrom is zero for identical assignments") {
    val ex = infos(2, _ => 0)
    val a = Assignment(IndexedSeq(IndexedSeq(2, 2), IndexedSeq(0, 0)))
    assert(a.migrationCostFrom(a, ex) == 0.0)
  }

  test("migrationCostFrom counts state leaving a node") {
    val ex = infos(1, _ => 0, state = 8 * MB)
    val before = Assignment(IndexedSeq(IndexedSeq(2), IndexedSeq(0)))
    val after = Assignment(IndexedSeq(IndexedSeq(1), IndexedSeq(1)))
    // Half the cores left node 0: half the state moves out.
    assert(math.abs(after.migrationCostFrom(before, ex) - 4 * MB) < 1.0)
  }

  test("assign grows an executor using free cores first") {
    val ex = infos(2, j => j)
    val prev = Assignment.oneCoreLocal(ex, numNodes = 2, coresPerNode = 4)
    val (Some(a), phi) = assign(IndexedSeq(3, 1), prev, IndexedSeq(4, 4), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    assert(a.totalOf(0) == 3)
    assert(a.totalOf(1) == 1)
    assert((0 until 2).forall(i => a.usedOn(i) <= 4))
  }

  test("assign prefers the local node (cheapest C+)") {
    val ex = infos(1, _ => 0)
    val prev = Assignment.oneCoreLocal(ex, numNodes = 2, coresPerNode = 8)
    val (Some(a), phi) = assign(IndexedSeq(4), prev, IndexedSeq(8, 8), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    // All nodes free; C+ is identical everywhere, but the data-intensive
    // constraint is off — greedy still lands everything locally because
    // x_ij grows there, lowering C+ for node 0 after the first pick.
    assert(a.totalOf(0) == 4)
    assert(a.cores(0)(0) >= 2, s"local node should host most cores: ${a.cores}")
  }

  test("data-intensive executor only accepts local cores") {
    // The executor's local node is 0, but its one core is on node 1, where
    // C+ is cheapest. Below its intensity, φ confines growth to node 0.
    val ex = infos(1, _ => 0, intensity = _ => 10 * MB)
    val prev = Assignment(IndexedSeq(IndexedSeq(0), IndexedSeq(1)))
    val (Some(local), phi) = assign(IndexedSeq(3), prev, IndexedSeq(2, 2), ex, phi0 = 1 * MB)
    assert(phi == 1 * MB)
    assert(local.cores(0)(0) == 2 && local.cores(1)(0) == 1, s"got ${local.cores}")
    val (Some(free), phiFree) = assign(IndexedSeq(3), prev, IndexedSeq(2, 2), ex, phi0 = 16 * MB)
    assert(phiFree == 16 * MB)
    assert(free.cores(0)(0) == 1 && free.cores(1)(0) == 2, s"got ${free.cores}")
  }

  test("assign doubles phi until feasible") {
    val ex = infos(2, j => j, intensity = j => if (j == 0) 10 * MB else 0.0)
    val prev = Assignment.oneCoreLocal(ex, numNodes = 2, coresPerNode = 2)
    val (res, phiUsed) = assign(IndexedSeq(4, 1), prev, IndexedSeq(2, 4), ex, phi0 = 1 * MB)
    assert(res.isDefined, "doubling phi lifts the locality constraint")
    assert(phiUsed > 10 * MB, s"phi must exceed the executor's intensity, got $phiUsed")
    assert(res.get.totalOf(0) == 4)
  }

  test("assign returns None when capacity is genuinely insufficient") {
    val ex = infos(1, _ => 0)
    val prev = Assignment.oneCoreLocal(ex, numNodes = 1, coresPerNode = 2)
    val (res, _) = assign(IndexedSeq(5), prev, IndexedSeq(2), ex)
    assert(res.isEmpty)
  }

  test("an executor holding no core is granted cores: C+ at X_j = 0 is 0, not 0/0") {
    val ex = infos(2, j => j)
    val prev = Assignment(IndexedSeq(IndexedSeq(1, 0), IndexedSeq(0, 0)))
    val (Some(a), phi) = assign(IndexedSeq(1, 2), prev, IndexedSeq(4, 4), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    assert(a.totalOf(0) == 1 && a.totalOf(1) == 2)
    assert(a.migrationCostFrom(prev, ex) == 0.0, "an executor with no core holds no state to move")
    assert(assign(IndexedSeq(1, 2), prev, IndexedSeq(4, 4), ex) == (Some(a), Phi0))
    // A data-intensive one takes its cores on its local node only.
    val hot = infos(2, j => j, intensity = j => if (j == 1) 64 * Phi0 else 0.0)
    val (Some(b), phiHot) = assign(IndexedSeq(1, 2), prev, IndexedSeq(4, 4), hot, phi0 = Phi0)
    assert(phiHot == Phi0)
    assert(b.cores(1)(1) == 2)
  }

  test("assign deallocates over-provisioned executors to feed hot ones") {
    val ex = infos(2, _ => 0)
    val prev = Assignment(IndexedSeq(IndexedSeq(6, 2))) // node0: e0=6, e1=2
    val (Some(a), phi) = assign(IndexedSeq(2, 6), prev, IndexedSeq(8), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    assert(a.totalOf(0) == 2)
    assert(a.totalOf(1) == 6)
    assert(a.usedOn(0) == 8)
  }

  test("assign respects node capacity") {
    val ex = infos(3, j => j % 2)
    val prev = Assignment.oneCoreLocal(ex, numNodes = 2, coresPerNode = 4)
    val (Some(a), phi) = assign(IndexedSeq(3, 3, 2), prev, IndexedSeq(4, 4), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    (0 until 2).foreach(i => assert(a.usedOn(i) <= 4))
  }

  test("minimal-migration: shrinking prefers nodes with fewest cores") {
    val ex = infos(1, _ => 0, state = 32 * MB)
    // 3 cores on node0, 1 on node1; shrinking to 3 should drop the node1
    // core (C- smaller when x_ij is small ... C- = s(X-x)/X(X-1): node1 has
    // x=1 -> cost s*3/12, node0 x=3 -> s*1/12; so it drops a node0 core).
    val prev = Assignment(IndexedSeq(IndexedSeq(3), IndexedSeq(1)))
    val (Some(a), phi) = assign(IndexedSeq(3), prev, IndexedSeq(4, 4), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    assert(a.totalOf(0) == 3)
    // Deallocating on the majority node is cheapest per the paper's C-.
    assert(a.cores(0)(0) == 2 && a.cores(1)(0) == 1, s"got ${a.cores}")
  }

  test("assignNaive satisfies the allocation without locality") {
    val ex = infos(4, j => j % 2)
    val res = assignNaive(IndexedSeq(4, 4, 2, 2), IndexedSeq(8, 8), ex)
    assert(res.isDefined)
    val a = res.get
    (0 until 4).foreach(j => assert(a.totalOf(j) == IndexedSeq(4, 4, 2, 2)(j)))
    (0 until 2).foreach(i => assert(a.usedOn(i) <= 8))
  }

  test("naive spreads an executor across nodes more than the optimizing assigner") {
    val ex = infos(1, _ => 0)
    val prev = Assignment.oneCoreLocal(ex, numNodes = 4, coresPerNode = 8)
    val Some(naive) = assignNaive(IndexedSeq(6), IndexedSeq.fill(4)(8), ex)
    val (Some(opt), phi) = assign(IndexedSeq(6), prev, IndexedSeq.fill(4)(8), ex, phi0 = Double.MaxValue)
    assert(phi == Double.MaxValue)
    val naiveNodes = (0 until 4).count(i => naive.cores(i)(0) > 0)
    val optNodes = (0 until 4).count(i => opt.cores(i)(0) > 0)
    assert(optNodes <= naiveNodes, s"opt=$optNodes naive=$naiveNodes")
    assert(optNodes == 1, "optimizing assigner keeps the executor local")
  }

  /** A random Algorithm 1 input: 1–8 nodes, 1–24 executors, some of them
    * stateless, some holding no core; extra cores scattered over `prev`,
    * sometimes past a node's capacity; intensities on both sides of 512 KB/s
    * and targets on both sides of the current totals, their sum sometimes
    * above the cluster's capacity.
    */
  private def randomInput(rng: Random)
      : (IndexedSeq[Int], Assignment, IndexedSeq[Int], IndexedSeq[ExecutorInfo]) = {
    val n = 1 + rng.nextInt(8)
    val m = 1 + rng.nextInt(24)
    val cap = IndexedSeq.fill(n)(rng.nextInt(9))
    val phi0 = 512.0 * 1024
    val execs = IndexedSeq.fill(m) {
      val state = if (rng.nextInt(5) == 0) 0.0 else (1 + rng.nextInt(4)) * 8 * MB
      val intensity = rng.nextInt(5) match {
        case 0 => 0.0
        case 1 => phi0 * rng.nextDouble()
        case 2 => phi0
        case 3 => phi0 * (1 + 7 * rng.nextDouble())
        case _ => phi0 * 64 * rng.nextDouble()
      }
      ExecutorInfo(rng.nextInt(n), state, intensity)
    }
    val x = Array.fill(n, m)(0)
    val used = Array.fill(n)(0)
    def place(i: Int, j: Int, overflow: Boolean): Unit =
      if (used(i) < cap(i) || overflow) { x(i)(j) += 1; used(i) += 1 }
    for (j <- 0 until m if rng.nextInt(6) != 0) place(execs(j).localNode, j, overflow = false)
    val overflow = rng.nextInt(4) == 0
    for (_ <- 0 until rng.nextInt(3 * m)) place(rng.nextInt(n), rng.nextInt(m), overflow)
    val target = IndexedSeq.tabulate(m) { j =>
      val total = (0 until n).map(x(_)(j)).sum
      math.max(0, total + rng.nextInt(7) - 3 + (if (rng.nextInt(4) == 0) rng.nextInt(6) else 0))
    }
    (target, Assignment(x.map(_.toIndexedSeq).toIndexedSeq), cap, execs)
  }

  test("assign matches the victim-scanning reference exactly at random phi") {
    var firstPhi, retried, overSubscribed, overCapacity, grownFromNone = 0
    forSeeds(2500) { rng =>
      val (target, prev, cap, execs) = randomInput(rng)
      val phi0 = 512.0 * 1024 * math.pow(2, rng.nextInt(8) - 2)
      val (res, phi) = assign(target, prev, cap, execs, phi0)
      assert((res, phi) == CpuAssignmentReference.assign(target, prev, cap, execs, phi0))
      if (phi > phi0) retried += 1 else if (res.isDefined) firstPhi += 1
      for (a <- res if execs.indices.exists(j => prev.totalOf(j) == 0 && a.totalOf(j) > 0)) grownFromNone += 1
      if (cap.indices.exists(i => prev.usedOn(i) > cap(i))) overSubscribed += 1
      if (target.sum > cap.sum) overCapacity += 1
    }
    // The generator reaches success at the first φ, φ retries, both kinds
    // of overload, and successes that grant cores to an executor that held
    // none.
    assert(Seq(firstPhi, retried, overSubscribed, overCapacity, grownFromNone).forall(_ > 100),
      s"first phi $firstPhi retried $retried oversubscribed $overSubscribed over capacity $overCapacity " +
        s"grown from no core $grownFromNone")
  }

  test("a row of X̃ with the wrong length is rejected") {
    val ex = infos(2, _ => 0)
    for (rows <- Seq(IndexedSeq(IndexedSeq(1, 0), IndexedSeq(1)), IndexedSeq(IndexedSeq(1, 0), IndexedSeq(1, 0, 1))))
      intercept[IllegalArgumentException](assign(IndexedSeq(1, 1), Assignment(rows), IndexedSeq(4, 4), ex))
  }

  private def arrays(a: Assignment): Seq[Array[Int]] =
    a.cores.collect { case r: ArraySeq.ofInt => r.unsafeArray }

  test("assign leaves prev as it was, shares no array with it, and equals a fresh run at its phi") {
    var chained, retried = 0
    forSeeds(500) { rng =>
      val (target, prev, cap, execs) = randomInput(rng)
      val (first, phi) = assign(target, prev, cap, execs)
      if (phi > Phi0) retried += 1
      first.foreach(a => assert(assign(target, prev, cap, execs, phi0 = phi) == (Some(a), phi)))
      // The simulator installs a decision and hands it back as the next X̃.
      for (a <- first) {
        val before = a.cores.map(_.toVector)
        val next = target.map(t => math.max(0, t + rng.nextInt(5) - 2))
        val (second, _) = assign(next, a, cap, execs)
        assert(a.cores == before)
        for (b <- second; row <- arrays(b)) assert(!arrays(a).exists(_ eq row))
        chained += 1
      }
    }
    assert(chained > 100 && retried > 100, s"chained $chained retried $retried")
  }

  /** A random input at the replay's scale: `n` nodes of 8 cores (16 when
    * more than 6 executors share a node) and `m` executors placed
    * round-robin, each holding its local core plus extra cores scattered
    * until 80–95% of the cluster is used. A tenth of the executors are data-
    * intensive (φ₀–64 φ₀) and some of those ask for up to 7 more cores, so
    * most inputs FAIL at φ₀ and retry; the other targets move by −2..+2,
    * and all of them are trimmed to fit the cluster.
    */
  private def largeInput(rng: Random, n: Int, m: Int)
      : (IndexedSeq[Int], Assignment, IndexedSeq[Int], IndexedSeq[ExecutorInfo]) = {
    val perNode = if (m > 6 * n) 16 else 8
    val execs = IndexedSeq.tabulate(m) { j =>
      val intensive = rng.nextInt(10) == 0
      ExecutorInfo(j % n, (1 + rng.nextInt(4)) * 8 * MB,
        Phi0 * (if (intensive) 1 + 63 * rng.nextDouble() else rng.nextDouble()))
    }
    val x = Array.fill(n, m)(0)
    val used = Array.fill(n)(0)
    for (j <- 0 until m) { x(j % n)(j) = 1; used(j % n) += 1 }
    var placed = m
    val fill = (n * perNode * (0.8 + 0.15 * rng.nextDouble())).toInt
    while (placed < fill) {
      val i = rng.nextInt(n)
      if (used(i) < perNode) { x(i)(rng.nextInt(m)) += 1; used(i) += 1; placed += 1 }
    }
    val target = Array.tabulate(m) { j =>
      val grow = if (execs(j).dataIntensity > Phi0 && rng.nextBoolean()) rng.nextInt(8) else 0
      math.max(1, (0 until n).map(x(_)(j)).sum + rng.nextInt(5) - 2 + grow)
    }
    // Trim the targets to the cluster so most inputs are feasible.
    while (target.sum > n * perNode) {
      val j = rng.nextInt(m)
      if (target(j) > 1) target(j) -= 1
    }
    (target.toIndexedSeq, Assignment(x.map(_.toIndexedSeq).toIndexedSeq), IndexedSeq.fill(n)(perNode), execs)
  }

  test("assign matches the reference on large inputs with phi retries") {
    var retried, succeeded = 0
    forSeeds(20, seed = 4321L) { rng =>
      val (target, prev, cap, execs) = largeInput(rng, 64 + rng.nextInt(65), 300 + rng.nextInt(309))
      val (res, phi) = assign(target, prev, cap, execs)
      assert((res, phi) == CpuAssignmentReference.assign(target, prev, cap, execs))
      if (phi > Phi0) retried += 1
      if (res.isDefined) succeeded += 1
    }
    assert(retried >= 10 && succeeded >= 10, s"of 20 inputs $retried retried phi and $succeeded succeeded")
  }

  test("assign allocates less than two copies of X̃ on 128 nodes × 608 executors") {
    val bean = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val (n, m) = (128, 608)
    // The first seed whose input succeeds after at least one phi retry.
    val (target, prev, cap, execs) = (1 to 100).iterator.map(s => largeInput(new Random(s), n, m)).find {
      case (t, p, c, e) => val (res, phi) = assign(t, p, c, e); res.isDefined && phi > Phi0
    }.get
    for (_ <- 0 until 200) assign(target, prev, cap, execs)
    val tid = Thread.currentThread.getId
    val bytes = (0 until 5).map { _ =>
      val before = bean.getThreadAllocatedBytes(tid)
      assign(target, prev, cap, execs)
      bean.getThreadAllocatedBytes(tid) - before
    }
    info(s"bytes allocated per call: ${bytes.mkString(", ")}")
    assert(bytes.max < 2L * n * m * 4, s"allocated $bytes bytes")
  }
}
