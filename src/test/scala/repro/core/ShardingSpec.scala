package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers

class ShardingSpec extends AnyFunSuite with PropHelpers {

  test("hash is deterministic") {
    assert(Sharding.hash(42L) == Sharding.hash(42L))
    assert(Sharding.hash(0L) == Sharding.hash(0L))
  }

  test("hash spreads consecutive keys") {
    val hs = (0L until 1000L).map(Sharding.hash).toSet
    assert(hs.size == 1000, "no collisions expected on 1000 consecutive keys")
  }

  test("executorOf stays in range") {
    forSeeds(200) { rng =>
      val k = rng.nextLong()
      val n = rng.nextInt(512) + 1
      val e = Sharding.executorOf(k, n)
      assert(e >= 0 && e < n)
    }
  }

  test("shardOf stays in range") {
    forSeeds(200) { rng =>
      val k = rng.nextLong()
      val z = rng.nextInt(4096) + 1
      val s = Sharding.shardOf(k, z)
      assert(s >= 0 && s < z)
    }
  }

  test("globalShardOf is consistent with executorOf (tier-1 is static)") {
    forSeeds(200) { rng =>
      val k = rng.nextLong(1000000L)
      val y = rng.nextInt(64) + 1
      val z = rng.nextInt(64) + 1
      val g = Sharding.globalShardOf(k, y, z)
      assert(g / z == Sharding.executorOf(k, y), "executor owns a contiguous shard block")
      assert(g % z == Sharding.shardOf(k, z))
    }
  }

  test("executor partition is roughly uniform over 10K keys") {
    val n = 32
    val counts = new Array[Int](n)
    (0 until 10000).foreach(k => counts(Sharding.executorOf(k.toLong, n)) += 1)
    val mean = 10000.0 / n
    counts.foreach(c => assert(math.abs(c - mean) < mean * 0.5, s"bucket $c vs mean $mean"))
  }

  test("rejects non-positive partition counts") {
    intercept[IllegalArgumentException](Sharding.executorOf(1L, 0))
    intercept[IllegalArgumentException](Sharding.shardOf(1L, 0))
  }
}
