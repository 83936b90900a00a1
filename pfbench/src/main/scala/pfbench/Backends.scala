package pfbench

import java.nio.charset.StandardCharsets.UTF_8
import scala.collection.mutable
import org.apache.spark.PfbenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.connector._
import repro.core.{DatabaseConnector, LocalResult, PolyFrame}
import repro.cypher.MiniCypher
import repro.mongo.MiniMongo
import repro.util.{JArr, Json}
import repro.wisconsin.WisconsinData

/** One layer-boundary span. `parent` 0 marks a root; spans of one action
  * share `action`.
  */
final case class Span(id: Int, parent: Int, backend: String, rep: Int, action: String,
                      name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
  def json: String =
    s"""{"id":$id,"parent":$parent,"backend":"$backend","rep":$rep,"action":"$action",""" +
    s""""name":"$name","start_ns":$startNs,"end_ns":$endNs}"""
}

/** Keeps spans in memory; they are written out when the run ends. A
  * disabled tracer only runs the wrapped code.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  var backend = "-"
  var rep     = 0
  var action  = "-"
  private var nextId = 1

  /** A fresh span id, for a span recorded once its end is known. */
  def reserve(): Int = { nextId += 1; nextId - 1 }

  def record(name: String, parent: Int, startNs: Long, endNs: Long, id: Int = reserve()): Unit =
    if (enabled) spans += Span(id, parent, backend, rep, action, name, startNs, endNs)

  def span[A](name: String, parent: Int)(f: => A): A = {
    if (!enabled) return f
    val id = reserve()
    val t0 = System.nanoTime()
    try f finally record(name, parent, t0, System.nanoTime(), id)
  }
}

/** Per-program counters of one traced run, keyed by metric name. */
final class Counters {
  val values = mutable.LinkedHashMap.empty[String, Double]
  def add(name: String, v: Double): Unit = values(name) = values.getOrElse(name, 0.0) + v
}

/** Jobs, tasks and scheduler wait (job start to its first task start), as
  * Spark reports them to listeners.
  */
final class JobListener extends SparkListener {
  private var jobs, tasks, waitMs = 0L
  private val stageJob = mutable.Map.empty[Int, Int]
  private val jobStart = mutable.Map.empty[Int, Long]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(s => stageJob(s) = e.jobId)
  }

  override def onTaskStart(e: SparkListenerTaskStart): Unit = synchronized {
    tasks += 1
    for (j <- stageJob.get(e.stageId); t0 <- jobStart.remove(j)) waitMs += e.taskInfo.launchTime - t0
  }

  def snapshot(spark: SparkSession): (Long, Long, Long) = {
    PfbenchBus.drain(spark.sparkContext)
    synchronized((jobs, tasks, waitMs))
  }
}

/** A PolyFrame connector with its frames, plus the layer calls its
  * `DatabaseConnector.run` makes, issued one by one so each can be timed.
  */
sealed abstract class Backend(val name: String, val connector: DatabaseConnector) {
  var frames: Frames = _

  /** The layers between `preProcess` and `postProcess`: what `execute` does. */
  def layers(query: String, base: String, tr: Tracer, parent: Int, c: Counters): LocalResult

  def close(): Unit = ()

  protected def collected(df: DataFrame, execSpan: String, tr: Tracer, parent: Int): LocalResult = {
    val rows = tr.span(execSpan, parent)(df.collect())
    tr.span("core.normalize", parent)(LocalResult.fromSparkRows(df.columns.toSeq, rows.toSeq))
  }
}

final class SparkBackend(spark: SparkSession) extends Backend("spark", new SparkSqlConnector(spark)) {
  def layers(query: String, base: String, tr: Tracer, parent: Int, c: Counters): LocalResult = {
    val df = tr.span("spark.parse_analyze", parent)(spark.sql(query))
    tr.span("spark.optimize_plan", parent)(df.queryExecution.executedPlan)
    val r = collected(df, "spark.execute", tr, parent)
    tr.span("trace.bookkeeping", parent) {
      val phases = df.queryExecution.tracker.phases
      Seq("parsing" -> "parse", "analysis" -> "analyze", "optimization" -> "optimize", "planning" -> "plan")
        .foreach { case (p, m) => c.add(s"spark.${m}_ms", phases.get(p).map(_.durationMs.toDouble).getOrElse(0.0)) }
      c.add("spark.optimized_plan_nodes", df.queryExecution.optimizedPlan.collect { case p => p }.size)
    }
    r
  }
}

final class DuckBackend extends Backend("duckdb", new DuckDbConnector()) {
  private val duck = connector.asInstanceOf[DuckDbConnector]

  def layers(query: String, base: String, tr: Tracer, parent: Int, c: Counters): LocalResult = {
    val st = duck.conn.createStatement()
    try {
      val rs = tr.span("duckdb.execute", parent)(st.executeQuery(query))
      val (cols, raw) = tr.span("duckdb.fetch", parent) {
        val meta = rs.getMetaData
        val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        val buf  = Vector.newBuilder[Array[AnyRef]]
        while (rs.next()) buf += Array.tabulate(cols.size)(i => rs.getObject(i + 1))
        st.close()
        (cols, buf.result())
      }
      tr.span("core.normalize", parent)(LocalResult(cols, raw.map(_.toVector.map(LocalResult.normalize))))
    } finally st.close()
  }

  override def close(): Unit = duck.close()
}

final class MongoBackend(spark: SparkSession, collections: Map[String, DataFrame])
    extends Backend("mongo", new MongoConnector(spark)) {
  def layers(query: String, base: String, tr: Tracer, parent: Int, c: Counters): LocalResult = {
    val pipeline = tr.span("mongo.json_parse", parent)(Json.parse(query).asInstanceOf[JArr])
    val df = tr.span("mongo.build", parent)(MiniMongo.run(collections(base), pipeline, collections))
    collected(df, "mongo.execute", tr, parent)
  }
}

final class CypherBackend(spark: SparkSession, collections: Map[String, DataFrame])
    extends Backend("cypher", new CypherConnector(spark)) {
  def layers(query: String, base: String, tr: Tracer, parent: Int, c: Counters): LocalResult = {
    val clauses = tr.span("cypher.parse", parent)(MiniCypher.parseClauses(query))
    val df = tr.span("cypher.build", parent)(MiniCypher.runClauses(clauses, collections))
    collected(df, "cypher.execute", tr, parent)
  }
}

/** The loaded system: Wisconsin data in all four backends. */
final class Env(val data: DataFrame, val backends: Vector[Backend]) {
  def close(): Unit = {
    backends.foreach(_.close())
    data.unpersist(blocking = true)
  }
}

object Env {
  val namespace   = "Bench"
  val collections = Seq("wisconsin", "wisconsin2")

  /** Generate, load both collections into every backend, create frames. */
  def setup(spark: SparkSession, n: Long, seed: Long, tr: Tracer): Env = {
    val data = tr.span("wisconsin.generate", 0) {
      val d = WisconsinData.generate(spark, n, seed).cache()
      d.count()
      d
    }
    val colls = collections.map(_ -> data).toMap
    val makers: Vector[(String, () => Backend)] = Vector(
      "spark" -> (() => new SparkBackend(spark)), "duckdb" -> (() => new DuckBackend),
      "mongo" -> (() => new MongoBackend(spark, colls)), "cypher" -> (() => new CypherBackend(spark, colls)))
    val backends = makers.map { case (name, make) =>
      tr.span(s"$name.load", 0) {
        val b = make()
        collections.foreach(c => b.connector.initialize(namespace, c, data))
        b
      }
    }
    tr.span("core.frames", 0)(backends.foreach { b =>
      b.frames = Frames(PolyFrame(b.connector, namespace, collections(0), WisconsinData.columns),
                        PolyFrame(b.connector, namespace, collections(1), WisconsinData.columns))
    })
    new Env(data, backends)
  }
}

object Execution {
  type Outcome = Either[Throwable, LocalResult]

  /** The program as a user runs it: public PolyFrame calls only. */
  def run(b: Backend, p: Program): Vector[Outcome] = {
    val out = Vector.newBuilder[Outcome]
    var cur = b.frames.df
    p.events.foreach {
      case Step(op) => cur = op.f(cur, b.frames)
      case Act(a) =>
        out += (try Right(Results.perform(a.branch.fold(cur)(_.f(cur, b.frames)), a.kind))
                catch { case e: Exception => Left(e) })
    }
    out.result()
  }

  /** The same program with every layer call in a span. Transformation calls
    * are charged to the next action, whose root span starts with them.
    */
  def traced(b: Backend, p: Program, tr: Tracer, c: Counters): Vector[Outcome] = {
    val out = Vector.newBuilder[Outcome]
    tr.backend = b.name
    var cur = b.frames.df
    var depth = 0
    val pending = mutable.ArrayBuffer.empty[(Long, Long)]
    p.events.foreach {
      case Step(op) =>
        val t0 = System.nanoTime()
        cur = op.f(cur, b.frames)
        pending += ((t0, System.nanoTime()))
        depth += op.calls
      case Act(a) =>
        tr.action = a.id
        val t0   = pending.headOption.map(_._1).getOrElse(System.nanoTime())
        val root = tr.reserve()
        pending.foreach { case (s0, e0) => tr.record("core.formation", root, s0, e0) }
        pending.clear()
        out += (try Right(action(b, cur, depth, a, tr, c, root)) catch { case e: Exception => Left(e) })
        tr.record("action", 0, t0, System.nanoTime(), root)
    }
    out.result()
  }

  private def action(b: Backend, cur: PolyFrame, depth: Int, a: Action, tr: Tracer, c: Counters,
                     root: Int): LocalResult = {
    def formation[A](f: => A): A = tr.span("core.formation", root)(f)
    val target = formation(a.branch.fold(cur)(_.f(cur, b.frames)))
    val base   = target.baseCollection
    val meta = a.kind match {
      case Kind.Count if target.isBase => tr.span("connector.count_metadata", root)(b.connector.countMetadata(base))
      case _ => None
    }
    val result = meta match {
      case Some(v) =>
        tr.span("trace.bookkeeping", root)(c.add(s"${b.name}.metadata_hits", 1))
        Results.scalar("count", v)
      case None =>
        val q = formation(a.kind match {
          case Kind.Count   => target.countQuery
          case Kind.Head(n) => target.headQuery(n)
          case Kind.Collect => target.collectQuery
          case Kind.Agg(fn) => target.aggValueQuery(fn)
        })
        val shipped = tr.span("connector.preprocess", root)(b.connector.preProcess(q, base))
        val raw  = b.layers(shipped, base, tr, root, c)
        val post = tr.span("connector.postprocess", root)(b.connector.postProcess(raw))
        tr.span("trace.bookkeeping", root) {
          c.add(s"${b.name}.query_bytes", shipped.getBytes(UTF_8).length)
          c.add(s"${b.name}.depth", depth + a.branch.map(_.calls).getOrElse(0) + 1)
        }
        a.kind match {
          case Kind.Count   => Results.scalar("count", post.scalarLong)
          case Kind.Agg(fn) => Results.scalar(fn, post.scalarDouble)
          case _            => post
        }
    }
    tr.span("trace.bookkeeping", root)(c.add(s"${b.name}.rows_returned", result.size))
    result
  }
}
