package repro.bench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.connector._
import repro.core.{DatabaseConnector, Frame, PolyFrame}
import repro.core.dsl._
import repro.eager.{EagerFrame, EagerOutOfMemoryException, MemoryBudget}
import repro.wisconsin.WisconsinData

/** The 13-expression DataFrame benchmark of the paper (Table III), with
  * the paper's two timing points: DataFrame *creation* time and
  * *expression-only* time (Appendix D).
  *
  * Benchmark parameters (the paper's x, y, z "random values within an
  * attribute's range") are pinned so every system computes an identical,
  * analytically-known result: expression 3 selects `ten == 4 AND
  * twentyPercent == 4 AND two == 0` (exactly n/10 rows by Table II's
  * derivations), expression 10 selects `ten == 4`, expression 11 selects
  * `onePercent` in [40, 60] (21% of rows).
  */
object Benchmark {

  val X3 = 4; val Y3 = 4; val Z3 = 0
  val X10 = 4
  val X11 = 40; val Y11 = 60

  val exprNames: Vector[String] = Vector(
    "1 Total Count", "2 Project", "3 Filter & Count", "4 Group By",
    "5 Map Function", "6 Max", "7 Min", "8 Group By & Max", "9 Sort",
    "10 Selection", "11 Range Selection", "12 Join & Count",
    "13 Count Missing Value")

  /** Expression i (1-based) of Table III on `df`, joining `df2` in
    * expression 12; returns a digest for sanity checks. One definition
    * serves PolyFrame on every connector and the eager baseline.
    */
  def expression[F <: Frame[F]](i: Int, df: F, df2: F): Any = i match {
    case 1  => df.count()
    case 2  => df.select("two", "four").head(5).size
    case 3  => df.filter(col("ten") === X3 && col("twentyPercent") === Y3 && col("two") === Z3).count()
    case 4  => df.groupBy("oddOnePercent").agg("count").collectAll().size
    case 5  => df("stringu1").map("upper").head(5).size
    case 6  => df("unique1").max()
    case 7  => df("unique1").min()
    case 8  => df.groupBy("twenty").agg("max", "four").collectAll().size
    case 9  => df.sortValues("unique1", ascending = false).head(5).size
    case 10 => df.filter(col("ten") === X10).head(5).size
    case 11 => df.filter(col("onePercent") >= X11 && col("onePercent") <= Y11).count()
    case 12 => df.join(df2, "unique1", "unique1").count()
    case 13 => df.filter(col("tenPercent").isna).count()
    case _  => throw new IllegalArgumentException(s"no expression $i")
  }

  /** One benchmarkable system: a creation step plus 13 expressions. */
  trait Target {
    def name: String
    /** Build the dataframe object (`pd.read_json` vs `AFrame(...)`). */
    def create(): Unit
    /** Run expression i (1-based); returns a digest for sanity checks. */
    def runExpr(i: Int): Any
  }

  /** PolyFrame on any backend connector. The connector must already be
    * initialized with collections `collection` and `rightCollection`.
    */
  final class PolyFrameTarget(connector: DatabaseConnector, namespace: String,
                              collection: String, rightCollection: String) extends Target {
    override def name: String = connector.name
    private var df: PolyFrame  = _
    private var df2: PolyFrame = _

    override def create(): Unit = {
      df  = PolyFrame(connector, namespace, collection, WisconsinData.columns)
      df2 = PolyFrame(connector, namespace, rightCollection, WisconsinData.columns)
    }

    override def runExpr(i: Int): Any = expression(i, df, df2)
  }

  /** The eager Pandas baseline over the JSON file. The benchmark joins
    * "two identical datasets", so the same loaded frame serves as both
    * sides of expression 12.
    */
  final class EagerTarget(jsonPath: Path, budget: MemoryBudget) extends Target {
    override def name = "Pandas(eager)"
    private var df: EagerFrame = _

    override def create(): Unit = {
      // re-creating the dataframe (warm-up, reruns) frees the previous one,
      // as rebinding the variable would in a notebook
      if (df != null) budget.releaseBase(df.sizeBytes)
      df = null
      budget.resetTransient()
      df = EagerFrame.readJsonLines(jsonPath, budget)
    }

    override def runExpr(i: Int): Any = {
      budget.resetTransient()
      expression(i, df, df)
    }
  }

  // ------------------------------------------------------------------ timing

  /** Per-expression outcome: seconds, skipped, or out-of-memory. */
  sealed trait Outcome { def cell: String }
  final case class Ok(seconds: Double, digest: Any) extends Outcome {
    override def cell: String = f"$seconds%.3f"
  }
  case object Oom     extends Outcome { override def cell = "OOM" }
  case object Skipped extends Outcome { override def cell = "n/a" }

  final case class RunResult(system: String, dataset: String,
                             creation: Outcome, exprs: Map[Int, Outcome])

  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Run creation + the requested expressions on one target, mapping
    * memory-budget failures to OOM cells (the paper's M/L/XL Pandas
    * behaviour).
    */
  def run(target: Target, dataset: String, exprs: Seq[Int] = 1 to 13,
          skip: Set[Int] = Set.empty): RunResult = {
    val creation: Outcome =
      try { val (_, s) = time(target.create()); Ok(s, ()) }
      catch { case _: EagerOutOfMemoryException => Oom }
    val results: Map[Int, Outcome] = exprs.map { i =>
      val out: Outcome =
        if (skip.contains(i)) Skipped
        else if (creation == Oom) Oom
        else
          try { val (d, s) = time(target.runExpr(i)); Ok(s, d) }
          catch { case _: EagerOutOfMemoryException => Oom }
      i -> out
    }.toMap
    RunResult(target.name, dataset, creation, results)
  }

  /** ASCII table: one row per expression, one column per run; `total`
    * adds creation time to every cell (the paper's "total runtime"
    * figures) vs expression-only.
    */
  def formatTable(title: String, runs: Seq[RunResult], exprs: Seq[Int],
                  total: Boolean): String = {
    val sb = new StringBuilder
    sb.append(s"== $title ==\n")
    val headers = "Expression" +: runs.map(r => s"${r.system}@${r.dataset}")
    val rows = exprs.map { i =>
      exprNames(i - 1) +: runs.map { r =>
        (r.creation, r.exprs(i)) match {
          case (Ok(c, _), Ok(e, _)) => if (total) f"${c + e}%.3f" else f"$e%.3f"
          case (_, o)               => o.cell
        }
      }
    }
    val all = headers +: rows
    val widths = headers.indices.map(c => all.map(_(c).length).max)
    all.foreach { r =>
      sb.append(r.zip(widths).map { case (v, w) => v.padTo(w, ' ') }.mkString("  "))
      sb.append('\n')
    }
    sb.toString
  }

  // --------------------------------------------------------- environment setup

  /** Load `data` into `connector` as both benchmark collections (expression
    * 12 joins the second to the first) and wrap it as a target.
    */
  def polyFrameTarget(connector: DatabaseConnector, data: DataFrame): PolyFrameTarget = {
    Seq("wisconsin", "wisconsin2").foreach(c => connector.initialize("Bench", c, data))
    new PolyFrameTarget(connector, "Bench", "wisconsin", "wisconsin2")
  }

  /** Build every single-node target over a freshly generated Wisconsin
    * dataset of n records: the eager baseline plus PolyFrame on SparkSQL,
    * DuckDB, MiniMongo and MiniCypher. Returns (targets, cleanup).
    */
  def singleNodeTargets(spark: SparkSession, n: Long, tmpDir: Path,
                        budget: MemoryBudget): (Seq[Target], () => Unit) = {
    val data = WisconsinData.generate(spark, n).cache()
    data.count() // materialize: the data "already lives in the database"

    val jsonPath = tmpDir.resolve(s"wisconsin_$n.json")
    WisconsinData.writeJsonLines(data, jsonPath)

    val duckConn = new DuckDbConnector()
    val targets = new EagerTarget(jsonPath, budget) +:
      Seq(new SparkSqlConnector(spark), duckConn, new MongoConnector(spark), new CypherConnector(spark))
        .map(polyFrameTarget(_, data))
    val cleanup = () => {
      duckConn.close()
      data.unpersist()
      java.nio.file.Files.deleteIfExists(jsonPath)
      ()
    }
    (targets, cleanup)
  }
}
