package repro.bench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.SparkSession
import repro.connector._
import repro.eager.{EagerFrame, EagerOutOfMemoryException, MemoryBudget}
import repro.wisconsin.WisconsinData
import Benchmark._

/** Drivers for the paper's evaluation tables:
  *
  *  - single-node (Table IV + Figs 5-8): XS-XL datasets, eager Pandas
  *    baseline vs PolyFrame on SparkSQL/DuckDB/MiniMongo/MiniCypher,
  *    total and expression-only timings, plus the 'Empty' baseline.
  *  - speedup (Table V + Fig 9): fixed dataset, workers 1-4.
  *  - scaleup (Table V + Fig 10): dataset size ∝ workers 1-4.
  *
  * Paper scale ×0.04: XS=20k .. XL=200k records (DESIGN.md §3). Workers
  * are `local[n]` cores (plus DuckDB `threads=n` as the Greenplum
  * analogue); MiniMongo skips expression 12 for >1 worker, mirroring
  * MongoDB's inability to join sharded data.
  */
object Runners {

  /** Table IV at ×0.04 scale. */
  val singleNodeSizes: Seq[(String, Long)] =
    Seq("XS" -> 20_000L, "S" -> 50_000L, "M" -> 100_000L, "L" -> 150_000L, "XL" -> 200_000L)

  val multiNodeWorkers: Seq[Int] = Seq(1, 2, 3, 4)

  /** Records for speedup (fixed) and scaleup (per worker) — the paper's
    * XL dataset. Larger than the single-node XL so per-query engine
    * overhead does not drown the parallelizable work.
    */
  val multiNodeBaseRecords: Long = 500_000L

  final case class BenchReport(title: String, runs: Seq[RunResult]) {
    def table(total: Boolean, exprs: Seq[Int] = 1 to 13): String =
      formatTable(s"$title — ${if (total) "TOTAL runtime (creation + expression), seconds"
                               else "EXPRESSION-ONLY runtime, seconds"}",
                  runs, exprs, total)
  }

  /** Fresh session (any prior one must be stopped) — public so bench
    * suites and pfbench manage their own lifecycles.
    */
  def newSession(master: String = "local[*]", shufflePartitions: Int = 16): SparkSession = {
    SparkSession.clearActiveSession()
    SparkSession.clearDefaultSession()
    SparkSession.builder
      .master(master)
      .appName("polyframe-bench")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
  }

  /** One untimed pass absorbs JIT/codegen first-run effects. The eager
    * target exceeding its memory budget (the paper's Pandas at M+) is the
    * one failure it expects; any other error propagates.
    */
  private def warmUp(t: Target, exprs: Seq[Int]): Unit = {
    def tolerateOom(f: => Any): Boolean =
      try { f; true } catch { case _: EagerOutOfMemoryException => false }
    if (tolerateOom(t.create())) exprs.foreach(i => tolerateOom(t.runExpr(i)))
  }

  private def warmedRun(t: Target, dataset: String, skip: Set[Int] = Set.empty): RunResult = {
    warmUp(t, (1 to 13).filterNot(skip))
    Benchmark.run(t, dataset, 1 to 13, skip)
  }

  // ------------------------------------------------------------- single node

  /** Memory budget reproducing the paper's Pandas behaviour: 3.5× the
    * in-memory footprint of the S dataset. S then completes every
    * expression (its worst peak, the self-join, is ~3×S) while M's load
    * alone peaks at 4×S (2× table + 2× parse intermediates) — so XS/S
    * complete and M/L/XL OOM, as in the paper.
    */
  def eagerBudgetBytes(spark: SparkSession, tmpDir: Path): Long = {
    val probeRows = 2000L
    val p = tmpDir.resolve("probe.json")
    WisconsinData.writeJsonLines(WisconsinData.generate(spark, probeRows), p)
    val probe = EagerFrame.readJsonLines(p, MemoryBudget.unlimited)
    Files.deleteIfExists(p)
    val bytesPerRow = probe.sizeBytes.toDouble / probeRows
    val sRows = singleNodeSizes.toMap.apply("S")
    (3.5 * bytesPerRow * sRows).toLong
  }

  def singleNode(spark: SparkSession, sizes: Seq[(String, Long)] = singleNodeSizes): Seq[BenchReport] = {
    val tmpDir = Files.createTempDirectory("polyframe-bench")
    val budgetBytes = eagerBudgetBytes(spark, tmpDir)
    val reports = sizes.map { case (label, n) =>
      val (targets, cleanup) =
        Benchmark.singleNodeTargets(spark, n, tmpDir, new MemoryBudget(budgetBytes))
      val runs = targets.map(t => warmedRun(t, label))
      cleanup()
      BenchReport(s"Single node, dataset $label (${n} records)", runs)
    }
    reports
  }

  /** The 'Empty' dataset baseline of Fig 5 — query-preparation overhead
    * for the 'small' expressions 2 and 10.
    */
  def emptyBaseline(spark: SparkSession): BenchReport = {
    val tmpDir = Files.createTempDirectory("polyframe-empty")
    val (allTargets, cleanup) =
      Benchmark.singleNodeTargets(spark, 0, tmpDir, MemoryBudget.unlimited)
    // The 'Empty' run measures the *database systems'* query-preparation
    // overhead (paper §IV-E-1); an empty JSON file gives Pandas no schema,
    // so only the PolyFrame variants participate.
    val targets = allTargets.filter(_.name.startsWith("PolyFrame"))
    // head() on an empty table returns 0 of the requested 5 rows; the
    // digest checks don't apply, only the overhead timing does.
    val runs = targets.map { t =>
      warmUp(t, Seq(2, 10))
      Benchmark.run(t, "Empty", Seq(2, 10))
    }
    cleanup()
    BenchReport("Single node, dataset Empty (0 records)", runs)
  }

  // -------------------------------------------------------------- multi node

  /** One multi-node measurement point: `workers` cores, `n` records.
    * Systems mirror the paper's cluster line-up via the DESIGN.md mapping:
    * SparkSQL (AsterixDB's role), MiniMongo (MongoDB), DuckDB threads=n
    * (Greenplum). MiniCypher sits out like Neo4j community edition.
    */
  def multiNodePoint(workers: Int, n: Long, datasetLabel: String): Seq[RunResult] = {
    val spark = newSession(s"local[$workers]", math.max(4, workers * 4))
    try {
      val data = WisconsinData.generate(spark, n).cache()
      data.count()

      val duckConn = new DuckDbConnector(threads = workers)
      val mongoSkip: Set[Int] = if (workers > 1) Set(12) else Set.empty
      val targets = Seq(new SparkSqlConnector(spark) -> Set.empty[Int],
                        new MongoConnector(spark)    -> mongoSkip,
                        duckConn                     -> Set.empty[Int])
        .map { case (c, skip) => (polyFrameTarget(c, data), skip) }
      val runs = targets.map { case (t, skip) => warmedRun(t, datasetLabel, skip) }
        .map(r => r.copy(system = s"${r.system}[w=$workers]"))
      duckConn.close()
      data.unpersist()
      runs
    } finally spark.stop()
  }

  /** Fig 9: fixed 'XL' data, growing worker count. */
  def speedup(): BenchReport =
    BenchReport(s"Speedup — fixed $multiNodeBaseRecords records, workers ${multiNodeWorkers.mkString(",")}",
      multiNodeWorkers.flatMap(w => multiNodePoint(w, multiNodeBaseRecords, "XL")))

  /** Fig 10: data grows with the worker count. */
  def scaleup(): BenchReport =
    BenchReport(s"Scaleup — $multiNodeBaseRecords records per worker, workers ${multiNodeWorkers.mkString(",")}",
      multiNodeWorkers.flatMap(w => multiNodePoint(w, multiNodeBaseRecords * w, s"${w}xXL")))
}
