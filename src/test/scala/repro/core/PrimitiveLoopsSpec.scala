package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.PropHelpers
import repro.core.CpuAssignment.ExecutorInfo
import repro.core.QueueingModel.ExecutorLoad
import scala.util.Random

/** The scheduler's primitive loops return, bit for bit, what the collection
  * expressions they replace return; those expressions are kept here.
  */
class PrimitiveLoopsSpec extends AnyFunSuite with PropHelpers {

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** Doubles that tell the orderings apart: NaNs with different payloads,
    * both zeros, both infinities, and a few values that repeat, so maxima tie.
    */
  private val special = IndexedSeq(Double.NaN, java.lang.Double.longBitsToDouble(0x7ff8000000000123L),
    0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, 1e-9, 1e-10, 3.5, 3.5, 1234.0, Double.MinPositiveValue)

  private def values(rng: Random): IndexedSeq[Double] = {
    val m = 1 + (if (rng.nextInt(4) == 0) 0 else rng.nextInt(40))
    IndexedSeq.fill(m)(rng.nextInt(3) match {
      case 0 => special(rng.nextInt(special.length))
      case 1 => rng.nextInt(5).toDouble // ties
      case _ => rng.nextDouble() * 1e4
    })
  }

  test("startAtMinima returns the boxed lambda0 and minima") {
    val fixed = Seq(IndexedSeq(Double.NaN), IndexedSeq(-0.0), IndexedSeq(-0.0, 0.0), IndexedSeq(0.0, -0.0),
      IndexedSeq(2.0, Double.NaN, 3.0), special, special.reverse)
    var nan, tied = 0
    def check(lambdas: IndexedSeq[Double]): Unit = {
      val loads = lambdas.map(ExecutorLoad(_, 1000.0))
      val k = new Array[Int](loads.length)
      val lambda0 = QueueingModel.startAtMinima(loads, k)
      val expected = math.max(loads.map(_.lambda).max, 1e-9)
      assert(bits(lambda0) == bits(expected), s"$lambdas: $lambda0 != $expected")
      assert(k.toSeq == loads.map(_.minCores))
      if (expected.isNaN) nan += 1
      if (lambdas.count(l => java.lang.Double.compare(l, lambdas.max) == 0) > 1) tied += 1
    }
    fixed.foreach(check)
    forSeeds(2000)(rng => check(values(rng)))
    assert(nan > 100 && tied > 100, s"NaN maxima $nan tied maxima $tied")
  }

  test("maxIntensity returns the boxed max, and 0 for no executors") {
    def check(intensities: IndexedSeq[Double]): Unit = {
      val execs = intensities.map(ExecutorInfo(0, 1.0, _))
      val expected = if (execs.isEmpty) 0.0 else execs.map(_.dataIntensity).max
      assert(bits(CpuAssignment.maxIntensity(execs)) == bits(expected), s"$intensities")
    }
    check(IndexedSeq.empty)
    Seq(IndexedSeq(-0.0), IndexedSeq(-0.0, 0.0), IndexedSeq(0.0, -0.0), special, special.reverse).foreach(check)
    forSeeds(2000)(rng => check(values(rng)))
  }

  test("the clip's sums equal the boxed sums, overflow included") {
    forSeeds(2000) { rng =>
      val m = 1 + rng.nextInt(40)
      val range = if (rng.nextBoolean()) 10 else Int.MaxValue
      val xs = IndexedSeq.fill(m)(rng.nextInt(range))
      assert(DynamicScheduler.sum(xs) == xs.sum)
      assert(DynamicScheduler.sum(xs.toArray.toIndexedSeq) == xs.sum)
    }
  }
}
