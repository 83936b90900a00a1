package pfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.SparkSession
import repro.bench.Runners
import repro.core.LocalResult

/** A workload: row count, how often setup is repeated, how many DuckDB
  * program runs follow each Spark-backed program in a repetition (its
  * program is 10-50x cheaper), and the program, built after setup so
  * reference answers stay out of `setup_s`.
  */
final case class Workload(name: String, rows: Long, setups: Int, duckRuns: Int, minReps: Int,
                          program: (Env, Long, Long) => Program)

object Workload {
  val all: Seq[Workload] = Seq(
    Workload("table3_20k", 20000L, setups = 5, duckRuns = 3, minReps = 4, (_, _, n) => Table3.program(n)),
    Workload("table3_500k", 500000L, setups = 2, duckRuns = 1, minReps = 3, (_, _, n) => Table3.program(n)),
    Workload("deep_chain", 20000L, setups = 5, duckRuns = 4, minReps = 2,
      (env, seed, n) => DeepChain.program(referenceRows(env), n, seed)),
  )

  /** The generated rows as the reference evaluator sees them. */
  def referenceRows(env: Env): Vector[Vector[Any]] =
    env.data.collect().iterator.map(r => Vector.tabulate(r.length)(i => LocalResult.normalize(r.get(i)))).toVector
}

/** Tally of checked actions: correct, known-defect mismatches, and
  * unexpected failures (exceptions or mismatches no known defect explains).
  * Every result is checked; only `counted` program runs enter attempted,
  * correct and known, one per backend and repetition, so that every backend
  * weighs the same in `correct_frac`.
  */
final class Tally {
  var attempted, correct, known, unexpected = 0L
  /** (backend, action) -> (reason, known defect, times). */
  val incorrect = mutable.LinkedHashMap.empty[(String, String), (String, Option[String], Int)]

  def check(backend: String, p: Program, outs: Vector[Execution.Outcome], counted: Boolean = true): Unit =
    p.actions.zip(outs).foreach { case (a, o) =>
      if (counted) attempted += 1
      val reason = o match {
        case Left(e)  => Some(s"exception: ${e.toString.take(200)}")
        case Right(r) => a.check(r)
      }
      reason.foreach { why =>
        val defect = o.toOption.flatMap(KnownDefects.explaining(a, backend, _))
        if (defect.isEmpty) unexpected += 1
        else if (counted) known += 1
        val key = backend -> a.id
        incorrect(key) = (why, defect, incorrect.get(key).map(_._3).getOrElse(0) + 1)
      }
      if (reason.isEmpty && counted) correct += 1
    }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between order statistics. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no samples")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = pos.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}

object Main {
  private final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                                rows: Option[Long], minReps: Option[Int], out: String)

  private def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    Opts(m("workload"), m("seed").toLong, m("seconds").toDouble, m("trace") == "1",
      m.get("rows").map(_.toLong), m.get("min-reps").map(_.toInt),
      m("out"))
  }

  val backendNames = Seq("spark", "duckdb", "mongo", "cypher")
  val sparkBacked  = Seq("spark", "mongo", "cypher")

  val endToEnd: Seq[(String, String)] =
    Seq("setup_s" -> "s", "correct_frac" -> "fraction") ++ backendNames.map(b => s"$b.program_ms" -> "ms")

  val perLayer: Seq[(String, String)] =
    Seq("wisconsin.generate_s" -> "s") ++ backendNames.map(b => s"$b.load_s" -> "s") ++
    Seq("spark.session_start_s" -> "s") ++
    backendNames.flatMap(b => Seq(
      s"$b.formation_us" -> "us", s"$b.normalize_us" -> "us", s"$b.preprocess_us" -> "us",
      s"$b.postprocess_us" -> "us", s"$b.query_bytes" -> "bytes", s"$b.depth" -> "count",
      s"$b.rows_returned" -> "count", s"$b.trace_overhead_ms" -> "ms", s"$b.span_remainder_us" -> "us")) ++
    Seq("spark.parse_ms", "spark.analyze_ms", "spark.optimize_ms", "spark.plan_ms", "spark.execute_ms").map(_ -> "ms") ++
    Seq("spark.optimized_plan_nodes" -> "count") ++
    Seq("mongo.json_parse_ms", "mongo.build_ms", "mongo.execute_ms").map(_ -> "ms") ++
    Seq("cypher.parse_ms", "cypher.build_ms", "cypher.execute_ms").map(_ -> "ms") ++
    Seq("cypher.metadata_hits" -> "count") ++
    Seq("duckdb.execute_ms", "duckdb.fetch_ms").map(_ -> "ms") ++
    sparkBacked.flatMap(b => Seq(s"$b.spark_jobs" -> "count", s"$b.spark_tasks" -> "count", s"$b.sched_wait_ms" -> "ms")) ++
    Seq("jvm.gc_ms" -> "ms", "jvm.heap_peak_mb" -> "MB")

  def main(args: Array[String]): Unit = {
    val code =
      try run(parse(args))
      catch { case e: Throwable => e.printStackTrace(); 1 }
    System.out.flush()
    System.exit(code)
  }

  private def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Run one phase of the run and print its wall time. */
  private def phase[A](name: String)(f: => A): A = {
    val t0 = System.nanoTime()
    try f finally println(f"phase $name%-10s ${secondsSince(t0)}%.2f s")
  }

  private def gcMillis(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  private def run(o: Opts): Int = {
    val w = Workload.all.find(_.name == o.workload)
      .getOrElse(throw new IllegalArgumentException(s"unknown workload ${o.workload}"))
    val n = o.rows.getOrElse(w.rows)
    val threads = math.min(4, Runtime.getRuntime.availableProcessors)
    val t0 = System.nanoTime()
    val spark = Runners.newSession(s"local[$threads]", shufflePartitions = 16)
    val sessionStart = secondsSince(t0)
    println(s"pfbench workload=${w.name} rows=$n seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0} " +
      s"spark_threads=$threads duckdb_threads=1")
    try {
      println(f"phase boot       $sessionStart%.2f s")
      phase("warmup")(warmUpSetup(spark, o.seed))
      val (metrics, tally, mismatches) =
        if (o.trace) traceRun(spark, w, n, o, sessionStart) else timedRun(spark, w, n, o)
      report(w, tally, mismatches, metrics, if (o.trace) perLayer else endToEnd)
    } finally spark.stop()
  }

  /** One untimed setup on 2k rows, so the setups that are timed find the
    * JIT and Spark's code generation warm.
    */
  private def warmUpSetup(spark: SparkSession, seed: Long): Unit =
    Env.setup(spark, 2000L, seed, new Tracer(false)).close()

  /** One untimed run of the program on every backend (traced too in a
    * traced run), so the timed repetitions start warm.
    */
  private def warmUpProgram(env: Env, p: Program, trace: Boolean): Unit = env.backends.foreach { b =>
    phase(s"warmup.${b.name}") {
      Execution.run(b, p)
      if (trace) Execution.traced(b, p, new Tracer(false), new Counters)
    }
  }

  private def timedRun(spark: SparkSession, w: Workload, n: Long, o: Opts)
      : (Map[String, Double], Tally, Int) = {
    var env: Env = null
    val setupTimes = phase("setups")((1 to w.setups).map { _ =>
      if (env != null) env.close()
      System.gc()
      val t0 = System.nanoTime()
      env = Env.setup(spark, n, o.seed, new Tracer(false))
      secondsSince(t0)
    })
    val program = phase("reference")(w.program(env, o.seed, n))
    warmUpProgram(env, program, trace = false)
    val samples = mutable.LinkedHashMap(backendNames.map(_ -> mutable.ArrayBuffer.empty[Double]): _*)
    val gcPerRep = mutable.ArrayBuffer.empty[Double]
    val tally = new Tally
    val minReps = o.minReps.getOrElse(w.minReps)
    val start = System.nanoTime()
    var rep = 0
    val singleDuckRuns = mutable.ArrayBuffer.empty[Double]
    val (duck, others) = env.backends.partition(_.name == "duckdb")
    while (rep < minReps || (secondsSince(start) < o.seconds && rep < 500)) {
      var gcMs = 0L
      def timed(b: Backend, counted: Boolean): Double = {
        val g0 = gcMillis()
        val t0 = System.nanoTime()
        val outs = Execution.run(b, program)
        val ms = (System.nanoTime() - t0) / 1e6
        gcMs += gcMillis() - g0
        tally.check(b.name, program, outs, counted)
        ms
      }
      // DuckDB's runs are spread over the repetition, a few after each
      // Spark-backed program, so they sample the same stretch of time as
      // the others. Its sample for the repetition is their mean: single
      // runs fall into a fast and a slow group that alternate in stretches
      // of seconds, and a median over runs jumps between the two.
      val repRuns = rotate(others, rep).zipWithIndex.flatMap { case (b, i) =>
        System.gc()
        samples(b.name) += timed(b, counted = true)
        for (d <- duck; k <- 1 to w.duckRuns) yield timed(d, counted = i == 0 && k == 1)
      }
      singleDuckRuns ++= repRuns
      samples("duckdb") += repRuns.sum / repRuns.size
      gcPerRep += gcMs.toDouble
      rep += 1
    }
    println(f"phase measure    ${secondsSince(start)}%.2f s reps=$rep")
    env.close()
    printSpread("setup_s", "s", setupTimes)
    printSpread("duckdb.program_ms(runs)", "ms", singleDuckRuns.toSeq)
    samples.foreach { case (b, xs) => printSpread(s"$b.program_ms", "ms", xs.toSeq) }
    printSpread("jvm.gc_ms", "ms", gcPerRep.toSeq)
    val metrics = Map("setup_s" -> Stats.median(setupTimes),
                      "correct_frac" -> tally.correct.toDouble / tally.attempted) ++
      samples.map { case (b, xs) => s"$b.program_ms" -> Stats.median(xs.toSeq) }
    (metrics, tally, 0)
  }

  private def traceRun(spark: SparkSession, w: Workload, n: Long, o: Opts, sessionStart: Double)
      : (Map[String, Double], Tally, Int) = {
    val listener = new JobListener
    spark.sparkContext.addSparkListener(listener)
    val tr = new Tracer(true)
    val heap = ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP)
    System.gc()
    heap.foreach(_.resetPeakUsage())
    val env = Env.setup(spark, n, o.seed, tr)
    val heapPeakMb = heap.map(_.getPeakUsage.getUsed).sum / 1048576.0
    val metrics = mutable.LinkedHashMap.empty[String, Double]
    tr.spans.foreach { s =>
      if (s.name == "wisconsin.generate" || s.name.endsWith(".load")) metrics(s"${s.name}_s") = s.durNs / 1e9
    }
    metrics("spark.session_start_s") = sessionStart
    metrics("jvm.heap_peak_mb") = heapPeakMb

    val program = phase("reference")(w.program(env, o.seed, n))
    warmUpProgram(env, program, trace = true)
    val untraced, traced = mutable.LinkedHashMap(backendNames.map(_ -> mutable.ArrayBuffer.empty[Double]): _*)
    val layer = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
    val gcPerRep = mutable.ArrayBuffer.empty[Double]
    val tally = new Tally
    var mismatches = 0
    val minReps = o.minReps.getOrElse(1)
    val start = System.nanoTime()
    var rep = 0
    while (rep < minReps || (secondsSince(start) < o.seconds && rep < 500)) {
      var gcMs = 0L
      tr.rep = rep + 1
      rotate(env.backends, rep).foreach { b =>
        def timed[A](samples: mutable.ArrayBuffer[Double])(f: => A): A = {
          System.gc()
          val g0 = gcMillis()
          val t0 = System.nanoTime()
          val a = f
          samples += (System.nanoTime() - t0) / 1e6
          gcMs += gcMillis() - g0
          a
        }
        val c = new Counters
        val firstSpan = tr.spans.size
        def plainRun() = timed(untraced(b.name))(Execution.run(b, program))
        def tracedRun() = {
          val (j0, k0, w0) = listener.snapshot(spark)
          val outs = timed(traced(b.name))(Execution.traced(b, program, tr, c))
          val (j1, k1, w1) = listener.snapshot(spark)
          if (sparkBacked.contains(b.name)) {
            c.add(s"${b.name}.spark_jobs", (j1 - j0).toDouble)
            c.add(s"${b.name}.spark_tasks", (k1 - k0).toDouble)
            c.add(s"${b.name}.sched_wait_ms", (w1 - w0).toDouble)
          }
          outs
        }
        // Alternate which run goes first, so warming between the two cancels out.
        val (plain, outs) =
          if (rep % 2 == 0) { val p = plainRun(); (p, tracedRun()) }
          else { val t = tracedRun(); (plainRun(), t) }

        tally.check(b.name, program, outs)
        program.actions.zip(plain.zip(outs)).foreach {
          case (a, (Right(x), Right(y))) if Results.same(a, x, y) =>
          case (a, (x, y)) =>
            mismatches += 1
            println(s"traced-mismatch ${w.name}/${b.name}/${a.id}: untraced=${x.fold(_.toString, _.rows.take(3))} " +
              s"traced=${y.fold(_.toString, _.rows.take(3))}")
        }
        spanMetrics(b.name, tr.spans.view.slice(firstSpan, tr.spans.size).toVector, c)
        c.values.foreach { case (k, v) => layer.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += v }
      }
      gcPerRep += gcMs.toDouble
      rep += 1
    }
    println(f"phase measure    ${secondsSince(start)}%.2f s reps=$rep")
    env.close()

    layer.foreach { case (k, xs) => metrics(k) = Stats.median(xs.toSeq) }
    metrics("jvm.gc_ms") = Stats.median(gcPerRep.toSeq)
    backendNames.foreach { b =>
      printSpread(s"$b.program_ms(untraced)", "ms", untraced(b).toSeq)
      printSpread(s"$b.program_ms(traced)", "ms", traced(b).toSeq)
      metrics(s"$b.trace_overhead_ms") = Stats.median(traced(b).toSeq) - Stats.median(untraced(b).toSeq)
    }
    printCoverage(tr.spans.toVector)
    val dir = Paths.get(o.out)
    Files.createDirectories(dir)
    val file = dir.resolve(s"spans-${w.name}-seed${o.seed}.jsonl")
    Files.write(file, tr.spans.map(_.json).asJava)
    println(s"spans ${tr.spans.size} written to $file")
    (metrics.toMap, tally, mismatches)
  }

  /** Layers reported in microseconds, by span name; a backend's own
    * spans (`spark.execute`, ...) are reported in milliseconds.
    */
  private val microLayers = Map("core.formation" -> "formation_us", "core.normalize" -> "normalize_us",
    "connector.preprocess" -> "preprocess_us", "connector.postprocess" -> "postprocess_us")

  /** Per-program layer times from the spans of one traced program run. */
  private def spanMetrics(backend: String, spans: Vector[Span], c: Counters): Unit = {
    spans.foreach { s =>
      microLayers.get(s.name) match {
        case Some(m) => c.add(s"$backend.$m", s.durNs / 1e3)
        case None    => if (s.name.startsWith(s"$backend.")) c.add(s"${s.name}_ms", s.durNs / 1e6)
      }
    }
    val children = spans.groupBy(_.parent)
    spans.filter(_.parent == 0).foreach { root =>
      val covered = children.getOrElse(root.id, Vector.empty).map(_.durNs).sum
      c.add(s"$backend.span_remainder_us", (root.durNs - covered) / 1e3)
    }
  }

  /** How much of each traced action's wall time its layer spans cover. */
  private def printCoverage(spans: Vector[Span]): Unit = {
    val children = spans.groupBy(_.parent)
    spans.filter(s => s.name == "action").groupBy(_.backend).toSeq.sortBy(_._1).foreach { case (b, roots) =>
      val rem = roots.map(r => (r.durNs - children.getOrElse(r.id, Vector.empty).map(_.durNs).sum) / 1e3)
      val total = roots.map(_.durNs).sum / 1e3
      println(f"coverage $b%-6s actions=${roots.size}%d remainder_us median=${Stats.median(rem)}%.1f " +
        f"max=${rem.max}%.1f share=${100 * rem.sum / total}%.2f%%")
    }
  }

  private def rotate[A](xs: Vector[A], k: Int): Vector[A] = xs.drop(k % xs.size) ++ xs.take(k % xs.size)

  private def printSpread(name: String, unit: String, xs: Seq[Double]): Unit =
    println(f"spread $name%-28s median=${Stats.median(xs)}%.4f p25=${Stats.quantile(xs, 0.25)}%.4f " +
      f"p75=${Stats.quantile(xs, 0.75)}%.4f n=${xs.size}%d $unit")

  private def json(v: Double): String = {
    require(!v.isNaN && !v.isInfinite, s"metric value $v")
    java.lang.Double.toString(v)
  }

  private def report(w: Workload, t: Tally, mismatches: Int, metrics: Map[String, Double],
                     names: Seq[(String, String)]): Int = {
    t.incorrect.foreach { case ((b, a), (why, defect, times)) =>
      println(s"incorrect ${w.name}/$b/$a x$times ${defect.fold("UNEXPECTED")(d => s"known=$d")}: $why")
    }
    names.foreach { case (k, unit) => println(f"metric $k%-28s ${metrics.getOrElse(k, 0.0)}%.4f $unit") }
    val failed = t.unexpected + mismatches
    println(s"""summary {"workload":"${w.name}","attempted":${t.attempted},"correct":${t.correct},""" +
      s""""known_defect_actions":${t.known},"unexpected":${t.unexpected},"traced_mismatches":$mismatches}""")
    val body = names.map { case (k, unit) =>
      s""""$k":{"value":${json(metrics.getOrElse(k, 0.0))},"unit":"$unit"}"""
    }.mkString(",")
    println(s"""{"correct":${failed == 0},"attempted":${t.attempted},"failed":$failed,"metrics":{$body}}""")
    0
  }
}
