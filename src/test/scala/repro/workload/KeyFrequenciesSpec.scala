package repro.workload

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{KeyFrequencies, UnsharedRandom}

class KeyFrequenciesSpec extends AnyFunSuite {

  test("frequencies are normalised") {
    val f = new KeyFrequencies(1000, 0.5, seed = 1)
    val total = (0 until 1000).map(f.freq).sum
    assert(math.abs(total - 1.0) < 1e-9)
  }

  test("zipf skew concentrates mass on few keys") {
    val f = new KeyFrequencies(10000, 0.5, seed = 1)
    val freqs = (0 until 10000).map(f.freq).sorted.reverse
    val top100 = freqs.take(100).sum
    assert(top100 > 0.02, "top keys carry disproportionate mass")
    assert(freqs.head > freqs.last * 10)
  }

  test("shuffle permutes frequencies but preserves the multiset") {
    val f = new KeyFrequencies(100, 1.0, seed = 2)
    val before = (0 until 100).map(f.freq)
    f.shuffle()
    val after = (0 until 100).map(f.freq)
    assert(before != after, "permutation changed per-key frequencies")
    def canon(s: Seq[Double]) = s.map(x => math.round(x * 1e12)).sorted
    assert(canon(before) == canon(after), "multiset preserved")
  }

  test("shuffle is deterministic in the seed") {
    val a = new KeyFrequencies(100, 1.0, seed = 3)
    val b = new KeyFrequencies(100, 1.0, seed = 3)
    a.shuffle(); b.shuffle()
    assert((0 until 100).forall(k => a.freq(k) == b.freq(k)))
  }

  test("newRegime changes distribution but keeps it normalised") {
    val f = new KeyFrequencies(500, 1.0, seed = 4)
    val before = (0 until 500).map(f.freq)
    f.newRegime(hotFraction = 0.05, hotFactor = 10.0)
    val after = (0 until 500).map(f.freq)
    assert(before != after)
    assert(math.abs(after.sum - 1.0) < 1e-9)
  }

  test("shardWeights sum to 1 and match key aggregation") {
    val f = new KeyFrequencies(1000, 0.5, seed = 5)
    val w = f.shardWeights(4, 8)
    assert(w.length == 32)
    assert(math.abs(w.sum - 1.0) < 1e-9)
  }

  test("shardWeights equals the key-by-key aggregation bit for bit") {
    val f = new KeyFrequencies(2000, 0.8, seed = 7)
    val rng = new scala.util.Random(7)
    def bits(w: Array[Double]) = w.toSeq.map(java.lang.Double.doubleToLongBits)
    def uncached(y: Int, z: Int): Array[Double] = {
      val w = new Array[Double](y * z)
      for (k <- 0 until f.numKeys) w(repro.core.Sharding.globalShardOf(k.toLong, y, z)) += f.freq(k)
      w
    }
    val pairs = IndexedSeq((38, 64), (16, 64), (4, 8), (1, 512))
    for (_ <- 0 until 60) {
      rng.nextInt(4) match {
        case 0 => f.shuffle()
        case 1 => f.newRegime(hotFraction = 0.05, hotFactor = 10.0)
        case _ =>
      }
      val (y, z) = pairs(rng.nextInt(pairs.length))
      val w = f.shardWeights(y, z)
      assert(bits(w) == bits(uncached(y, z)))
      java.util.Arrays.fill(w, 1.0)
      assert(bits(f.shardWeights(y, z)) == bits(uncached(y, z)), "a caller's writes leak into the next call")
    }
  }

  test("UnsharedRandom draws what java.util.Random draws, before and after setSeed") {
    for (seed <- Seq(0L, 1L, -1L, 2019L, Long.MinValue)) {
      val ours = new UnsharedRandom(seed)
      val theirs = new java.util.Random(seed)
      val pick = new scala.util.Random(seed)
      def sameDraws(round: String): Unit = {
        for (call <- 0 until 10000) {
          def at = s"seed $seed, $round, call $call"
          pick.nextInt(6) match {
            case 0 => assert(ours.nextDouble() == theirs.nextDouble(), at)
            case 1 =>
              val bound = 1 << (1 + pick.nextInt(30))
              assert(ours.nextInt(bound) == theirs.nextInt(bound), s"$at, bound $bound")
            case 2 =>
              val bound = 1 + pick.nextInt(Int.MaxValue)
              assert(ours.nextInt(bound) == theirs.nextInt(bound), s"$at, bound $bound")
            case 3 => assert(ours.nextLong() == theirs.nextLong(), at)
            case 4 => assert(ours.nextBoolean() == theirs.nextBoolean(), at)
            case _ => assert(ours.nextGaussian() == theirs.nextGaussian(), at)
          }
        }
        assert(new scala.util.Random(ours).shuffle((0 until 2000).toVector) ==
          new scala.util.Random(theirs).shuffle((0 until 2000).toVector), s"seed $seed, $round, shuffle")
      }
      sameDraws("from the constructor")
      // An odd number of Gaussians leaves one cached; setSeed must drop it.
      assert(ours.nextGaussian() == theirs.nextGaussian())
      ours.setSeed(seed ^ 0x5DEECE66DL)
      theirs.setSeed(seed ^ 0x5DEECE66DL)
      sameDraws("after setSeed")
    }
  }

  test("more shards improve achievable balance granularity (§3.1 trade-off)") {
    // Few hot keys: with coarse sharding, hot keys lump into the same shard
    // and no assignment can balance 4 tasks; finer sharding separates them.
    val f = new KeyFrequencies(100, 1.2, seed = 6)
    def balancedImbalance(z: Int): Double = {
      val w = f.shardWeights(1, z).toIndexedSeq
      val r = repro.core.LoadBalancer.rebalance(w, IndexedSeq.tabulate(z)(_ % 4), 4, theta = 1.0)
      r.imbalance
    }
    assert(balancedImbalance(512) < balancedImbalance(8),
      s"fine=${balancedImbalance(512)} coarse=${balancedImbalance(8)}")
  }

  test("MicroBenchWorkload shuffles at omega per minute") {
    val w = new MicroBenchWorkload(offeredRate = 1000, shufflesPerMin = 2)
    assert(!w.advanceTo(0.0))
    assert(!w.advanceTo(29.9))
    assert(w.advanceTo(30.0), "first shuffle at 60/ω = 30 s")
    assert(!w.advanceTo(30.1))
    assert(w.advanceTo(60.0))
  }

  test("MicroBenchWorkload with omega 0 never shuffles") {
    val w = new MicroBenchWorkload(offeredRate = 1000, shufflesPerMin = 0)
    assert(!w.advanceTo(1e6))
  }

  test("MicroBenchWorkload topology matches Fig. 5") {
    val w = new MicroBenchWorkload(1000, 2)
    assert(w.operators.map(_.name) == IndexedSeq("calculator", "sink"))
    assert(w.throughputOp == "calculator")
    assert(w.externalRate("calculator", 0) == 1000)
    assert(w.externalRate("sink", 0) == 0)
    assert(w.calculator.downstream == Seq("sink" -> 1.0))
  }

  test("MicroBenchWorkload default parameters are the paper's") {
    val w = new MicroBenchWorkload(1000, 2)
    assert(w.calculator.cpuSecPerTuple == 1e-3)
    assert(w.calculator.tupleBytes == 128.0)
    assert(w.calculator.statePerShardBytes == 32.0 * 1024)
  }
}
