package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.SparkSession
import repro.experiments.Experiments
import repro.sim.{StreamSimulator, SweepDriver}

/** What one sweep point reports besides its `SweepRow`. Spark runs locally,
  * so the closure passed to `SweepDriver.sweep` hands these to the driver
  * thread through [[SweepPoint.records]] in the same JVM.
  */
final case class PointRecord(unit: Int, label: String, omega: Double, startNs: Long, wallNs: Long,
                             schedulerMillis: IndexedSeq[Double], behaviour: SimBehaviour,
                             violations: Seq[String], calls: WorkloadCalls, allocBytes: Long, ticks: Long,
                             calculatorTasks: IndexedSeq[Int])

object SweepPoint {
  val records = new ConcurrentLinkedQueue[PointRecord]()

  /** One Fig. 6 point: build, run and summarise its simulation. */
  def run(unit: Int, approach: String, omega: Double, seed: Long, traced: Boolean): SweepDriver.SweepRow = {
    val cfg = Scenarios.fig6Config(approach, 8, Scenarios.fig6DurationSec)
    val base = Scenarios.fig6Workload(omega, 8, seed)
    val timed = if (traced) Some(new TimedWorkload(base)) else None
    val alloc0 = if (traced) Jvm.threadAllocatedBytes() else 0L
    val t0 = System.nanoTime()
    val sim = new StreamSimulator(cfg, timed.getOrElse(base))
    val r = sim.run()
    val wall = System.nanoTime() - t0
    val alloc = if (traced) Jvm.threadAllocatedBytes() - alloc0 else 0L
    records.add(PointRecord(unit, approach, omega, t0, wall, r.schedulerMillis, SimBehaviour.of(r),
      SimBehaviour.violations(r), timed.fold(WorkloadCalls())(WorkloadCalls.of), alloc,
      math.round(cfg.durationSec / cfg.tickSec),
      sim.layout.find(_._1 == "calculator").fold(IndexedSeq.empty[Int])(_._3)))
    SweepDriver.summarize(approach, omega, r)
  }
}

/** `fig6-sweep-8n`: the 12 Fig. 6 points (static, RC, Elasticutor × ω ∈
  * {0, 2, 8, 16}, 8 nodes) through `SweepDriver.sweep` on local Spark with
  * min(nproc, 4) slots. One timed unit is one whole sweep, collected.
  */
object Sweep {
  import Main._

  val points: Seq[(String, Double)] =
    for (a <- Experiments.fig6Approaches; o <- Scenarios.fig6Omegas) yield (a, o)

  def slots: Int = math.min(Runtime.getRuntime.availableProcessors, 4)

  def startSpark(): SparkSession = {
    val dir = System.getProperty("perfbench.build", ".") + "/spark"
    val s = SparkSession.builder
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", dir)
      .config("spark.sql.warehouse.dir", dir + "/warehouse")
      .config("spark.sql.shuffle.partitions", slots.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** The Fig6ShapeBench relations on one sweep's rows. */
  def shapeViolations(rows: Map[(String, Double), SweepDriver.SweepRow]): Seq[String] = {
    def lat(a: String, o: Double) = rows((a, o)).meanLatencySec
    def thr(a: String, o: Double) = rows((a, o)).throughput
    val out = ArrayBuffer.empty[String]
    def need(ok: Boolean, what: => String): Unit = if (!ok) out += what
    need(lat("Elasticutor", 16) < lat("Elasticutor", 0) * 5, "Elasticutor latency not flat across omega")
    need(lat("Elasticutor", 16) < 0.05, s"Elasticutor omega 16 latency ${lat("Elasticutor", 16)} s >= 50 ms")
    need(lat("RC", 0) < lat("Elasticutor", 0) * 2 + 0.005, "RC does not match Elasticutor at omega 0")
    need(lat("RC", 16) > lat("Elasticutor", 16) * 20, "RC does not collapse at omega 16")
    need(lat("RC", 2) >= lat("RC", 0) && lat("RC", 8) >= lat("RC", 2) && lat("RC", 16) >= lat("RC", 8),
      "RC latency not monotone in omega")
    for (o <- Scenarios.fig6Omegas) {
      need(lat("static", o) > lat("Elasticutor", o) * 10, s"static not far above Elasticutor at omega $o")
      need(thr("Elasticutor", o) >= thr("static", o) * 0.99, s"Elasticutor throughput below static at omega $o")
      need(thr("Elasticutor", o) >= thr("RC", o) * 0.95, s"Elasticutor throughput below RC at omega $o")
    }
    need(lat("RC", 16) > lat("static", 16), "RC not worse than static at omega 16")
    out.toSeq
  }

  final case class SweepUnit(rows: Map[(String, Double), SweepDriver.SweepRow], records: Seq[PointRecord], wall: Double)

  def run(seed: Long, seconds: Double, tracer: Option[Tracer]): (Checks, Map[String, Double]) = {
    val checks = new Checks
    var spark: SparkSession = null
    // Set-up is starting the Spark session; the third start is kept.
    val setup = setupSeconds(3) {
      if (spark != null) spark.stop()
      spark = startSpark()
    }
    var reference: Option[Map[(String, Double), SweepDriver.SweepRow]] = None

    /** One checked sweep; each point is an operation. A failed shape
      * relation fails every point of its sweep.
      */
    def sweep(unit: Int, traced: Boolean): Option[SweepUnit] = {
      val t0 = System.nanoTime()
      Try {
        val df = SweepDriver.sweep(spark, points, { case (a, o) => SweepPoint.run(unit, a, o, seed, traced) })
        df.collect().map { r =>
          val row = SweepDriver.SweepRow(r.getAs[String]("label"), r.getAs[Double]("param"),
            r.getAs[Double]("throughput"), r.getAs[Double]("mean_latency_sec"),
            r.getAs[Double]("p99_latency_sec"), r.getAs[Double]("migration_mb_per_sec"),
            r.getAs[Double]("remote_mb_per_sec"))
          (row.label, row.param) -> row
        }.toMap
      } match {
        case Success(rows) =>
          val wall = (System.nanoTime() - t0) / 1e9
          val recs = SweepPoint.records.asScala.filter(_.unit == unit).toSeq
          SweepPoint.records.removeIf(_.unit == unit)
          val perPoint = points.zipWithIndex.flatMap { case (p, i) =>
            val v = recs.find(r => (r.label, r.omega) == p).fold(Seq("no record"))(_.violations) ++
              (if (rows.contains(p)) Nil else Seq("no row"))
            v.map(m => i -> s"$p: $m")
          }
          val shape = if (rows.size == points.length) shapeViolations(rows) else Seq("missing rows")
          val differs = reference.filter(_ != rows).map(_ => "rows differ from the first sweep").toSeq
          val whole = (shape ++ differs).map(-1 -> _)
          val failedOps = if (whole.nonEmpty) points.indices.toSet else perPoint.map(_._1).toSet
          checks.batch(s"sweep $unit", points.length, failedOps, (perPoint ++ whole).map(_._2))
          if (reference.isEmpty) reference = Some(rows)
          if (failedOps.isEmpty) Some(SweepUnit(rows, recs, wall)) else None
        case Failure(e) =>
          checks.batch(s"sweep $unit", points.length, points.indices.toSet, Seq(describe(e)))
          None
      }
    }

    try tracer match {
      case None =>
        val walls = ArrayBuffer.empty[Double]
        timedLoop(seconds) { i =>
          val (u, s) = wallSec(sweep(i, traced = false))
          u.foreach(walls += _.wall)
          s
        }
        (checks, Map(
          "setup_s" -> setup,
          "run_s" -> (if (walls.isEmpty) Double.NaN else Stats.median(warm(walls))),
          "tput_ktps" -> reference.fold(Double.NaN)(r => Stats.mean(r.values.map(_.throughput).toSeq) / 1e3)))

      case Some(tr) =>
        // The first sweep warms the JVM; the second is the untraced baseline.
        tr.span("unit.warmup")(_ => sweep(-2, traced = false))
        val plain = tr.span("unit.untraced")(_ => sweep(0, traced = false))
        val gc0 = Jvm.gcMillis()
        val traced = tr.span("unit.traced") { parent =>
          val u = tr.span("sim.SweepDriver.sweep", parent)(_ => sweep(1, traced = true))
          u.foreach(_.records.foreach(r =>
            tr.record(s"sweep.point ${r.label} omega=${r.omega}", parent, r.startNs, r.startNs + r.wallNs)))
          u
        }
        val gcMs = Jvm.gcMillis() - gc0
        // The same points run one after another on this thread, without
        // Spark: the baseline for the sweep's speed-up. They must reproduce
        // the sweep's rows.
        val (serialRows, serial) = wallSec(tr.span("unit.serial")(_ =>
          points.map { case (a, o) => SweepPoint.run(-1, a, o, seed, traced = false) }))
        val serialRecs = SweepPoint.records.asScala.filter(_.unit == -1).toSeq
        SweepPoint.records.removeIf(_.unit == -1)
        val serialBad = points.indices.flatMap { i =>
          val p = points(i)
          val v = serialRecs.find(r => (r.label, r.omega) == p).fold(Seq("no record"))(_.violations) ++
            (if (reference.forall(_.get(p).contains(serialRows(i)))) Nil else Seq("differs from the sweep"))
          v.map(m => i -> s"serial $p: $m")
        }
        checks.batch("serial points", points.length, serialBad.map(_._1).toSet, serialBad.map(_._2))
        val values = Map.newBuilder[String, Double]
        for (u <- traced) {
          val recs = u.records
          val pointS = recs.map(_.wallNs / 1e9)
          val calls = recs.map(_.calls).foldLeft(WorkloadCalls())(_ + _)
          val sched = recs.flatMap(_.schedulerMillis)
          val ticks = recs.map(_.ticks).sum.toDouble
          val selfS = pointS.sum - calls.totalNs / 1e9 - sched.sum / 1e3
          val b = recs.map(_.behaviour)
          values ++= Seq(
            "sim.engine.self_s" -> selfS,
            "sim.engine.ns_per_tick" -> selfS * 1e9 / ticks,
            "sim.engine.ticks" -> ticks,
            "sim.engine.alloc_bytes_per_tick" -> recs.map(_.allocBytes).sum / ticks,
            "sim.engine.gc_ms" -> gcMs.toDouble,
            "sim.result.migration_mbps" -> Stats.mean(b.map(_.migrationMBps)),
            "sim.result.lat_mean_ms" -> Stats.mean(b.map(_.meanLatencySec * 1e3)),
            "sim.result.lat_p99_ms" -> Stats.mean(b.map(_.p99LatencySec * 1e3)),
            "sim.result.remote_mbps" -> Stats.mean(b.map(_.remoteMBps)),
            "sim.protocol.moves" -> b.map(_.moves).sum.toDouble,
            "sim.protocol.moves_inter_node" -> b.map(_.movesInterNode).sum.toDouble,
            "sim.protocol.move_sync_ms" -> Stats.mean(b.filter(_.moves > 0).map(_.moveSyncMs)),
            "sim.protocol.repartitions" -> b.map(_.repartitions).sum.toDouble,
            "core.DynamicScheduler.share_of_run" -> sched.sum / 1e3 / pointS.sum,
            "sim.SweepDriver.point_s_sum" -> pointS.sum,
            "sim.SweepDriver.point_s_max" -> pointS.max,
            "sim.SweepDriver.serial_s" -> serial,
            "sim.SweepDriver.speedup" -> serial / u.wall,
            "sim.SweepDriver.parallel_efficiency" -> serial / u.wall / slots)
          values ++= calls.metrics ++ Scheduler.timings(sched)
          // The balancer probe uses the task counts the Elasticutor ω=16
          // point ended with.
          for (ec <- recs.find(r => r.label == "Elasticutor" && r.omega == 16.0))
            values ++= Balancer.probe(Scenarios.fig6Config("Elasticutor", 8, Scenarios.fig6DurationSec),
              seed, ec.calculatorTasks, tr)
          for (p <- plain) values += "trace.overhead_ratio" -> (u.wall / p.wall - 1)
        }
        values += "trace.spans" -> tr.count.toDouble
        (checks, values.result())
    } finally spark.stop()
  }
}
