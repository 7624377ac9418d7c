package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** `CompletionStats` finds a latency's histogram bucket in a table of edges;
  * these properties hold it to the log10 formula the table was derived from.
  */
class CompletionStatsSpec extends AnyFunSuite {

  /** The bucket formula the histogram is defined by. */
  private def formulaBucket(latencySec: Double): Int = {
    val l = math.max(latencySec, 1e-6)
    math.min(CompletionStats.Buckets - 1, math.max(0, ((math.log10(l) + 6.0) * 10).toInt))
  }

  private def assertSameBucket(l: Double): Unit = {
    val (table, formula) = (CompletionStats.bucketOf(l), formulaBucket(l))
    if (table != formula) fail(s"latency $l: table bucket $table, formula bucket $formula")
  }

  test("one edge per bucket boundary, strictly increasing") {
    val edges = CompletionStats.edges
    assert(edges.length == CompletionStats.Buckets - 1)
    assert(edges.sliding(2).forall(p => p(0) < p(1)))
    assert(edges.head > 1e-6 && edges.last < 1e6)
  }

  test("table matches the formula within 64 ulps of every edge") {
    for (e <- CompletionStats.edges; d <- -64L to 64L)
      assertSameBucket(java.lang.Double.longBitsToDouble(java.lang.Double.doubleToLongBits(e) + d))
  }

  test("table matches the formula on 10^7 draws of 10^U(-8, 7)") {
    val rng = new Random(20240601L)
    var i = 0
    while (i < 10000000) {
      assertSameBucket(math.pow(10, rng.nextDouble() * 15 - 8))
      i += 1
    }
  }

  test("table matches the formula on 10^7 raw 64-bit patterns") {
    // Any sign, exponent and mantissa: the lookup indexes the bits directly.
    val rng = new Random(20261017L)
    var i = 0
    while (i < 10000000) {
      assertSameBucket(java.lang.Double.longBitsToDouble(rng.nextLong()))
      i += 1
    }
  }

  test("table matches the formula on subnormal latencies of either sign") {
    val rng = new Random(20261018L)
    val largestSubnormal = java.lang.Double.longBitsToDouble((1L << 52) - 1)
    Seq(largestSubnormal, -largestSubnormal, -Double.MinPositiveValue).foreach(assertSameBucket)
    for (_ <- 0 until 100000) {
      val bits = rng.nextLong() & ((1L << 52) - 1) // exponent field 0: subnormal or zero
      assertSameBucket(java.lang.Double.longBitsToDouble(bits))
      assertSameBucket(java.lang.Double.longBitsToDouble(bits | Long.MinValue))
    }
  }

  test("table matches the formula on zero, negative and non-finite latencies") {
    Seq(0.0, -0.0, -1e-9, -1.0, -Double.MaxValue, Double.NegativeInfinity, Double.NaN,
      Double.PositiveInfinity, Double.MaxValue, Double.MinPositiveValue, 1e-6, 1e6)
      .foreach(assertSameBucket)
    assert(CompletionStats.bucketOf(Double.NaN) == 0)
    assert(CompletionStats.bucketOf(Double.PositiveInfinity) == CompletionStats.Buckets - 1)
  }
}
