package repro.connector

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.plans.logical.Repartition
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import repro.SparkSpec
import repro.core.PolyFrame
import repro.core.dsl._
import repro.wisconsin.WisconsinData

/** A Spark-backed connector stores a collection in as many partitions as
  * Spark splits a stored table of its size into (`SparkBacked.stored`): a
  * small collection becomes one partition, so a Table III action plans no
  * shuffle, and a large one keeps its parallelism.
  */
class StoredLayoutSpec extends SparkSpec with AdaptiveSparkPlanHelper {

  private lazy val data = WisconsinData.generate(spark, 2000).cache()
  private lazy val connectors: Seq[SparkBacked] = Seq(
    new SparkSqlConnector(spark), new MongoConnector(spark), new CypherConnector(spark))
    .map { c => Seq("swisc", "swisc2").foreach(t => c.initialize("Sl", t, data)); c }

  private def partitions(df: DataFrame): Int = df.queryExecution.toRdd.getNumPartitions

  /** Spark's file-split rule (`FilePartition.maxSplitBytes`) over the
    * session's settings, as `SparkBacked.stored` applies it.
    */
  private def splitPartitions(df: DataFrame): BigInt = {
    val conf  = spark.sessionState.conf
    val size  = df.queryExecution.optimizedPlan.stats.sizeInBytes
    val cores = conf.filesMinPartitionNum.getOrElse(spark.sparkContext.defaultParallelism)
    val split = BigInt(conf.filesMaxPartitionBytes).min(BigInt(conf.filesOpenCostInBytes).max(size / cores))
    (size + split - 1) / split
  }

  private def shuffles(plan: SparkPlan): Seq[ShuffleExchangeExec] = collect(plan) { case s: ShuffleExchangeExec => s }

  test("a 2,000-row collection is stored in one partition") {
    assume(partitions(data) > 1, "the session splits the generated collection into one partition already")
    assert(splitPartitions(data) == 1)
    assert(partitions(SparkBacked.stored(data)) == 1)
  }

  test("count, group-by and the expression-12 join plan no shuffle on every Spark-backed connector") {
    connectors.foreach { c =>
      val df = PolyFrame(c, "Sl", "swisc", WisconsinData.columns)
      val actions: Seq[(String, String, Seq[Seq[Any]] => Unit)] = Seq(
        ("count", df.countQuery, rows => assert(rows == Seq(Seq(2000L)))),
        ("group-by", df.groupBy("twenty").agg("max", "four").collectQuery, rows => assert(rows.size == 20)),
        ("join count", df.join(PolyFrame(c, "Sl", "swisc2", WisconsinData.columns), "unique1", "unique1").countQuery,
          rows => assert(rows == Seq(Seq(2000L)))))
      actions.foreach { case (what, query, check) =>
        withClue(s"${c.name} $what: ") {
          val planned = c.plan(c.preProcess(query, "swisc"), "swisc")
          check(planned.collect().toSeq.map(_.toSeq))
          val executed = planned.queryExecution.executedPlan
          assert(shuffles(executed).isEmpty, executed)
        }
      }
    }
  }

  test("a collection that gives each core more than openCostInBytes keeps its partitions and is not repartitioned") {
    val conf  = spark.sessionState.conf
    val cores = conf.filesMinPartitionNum.getOrElse(spark.sparkContext.defaultParallelism)
    // 8-byte rows: each core's share is twice openCostInBytes
    val large = spark.range(0L, 2 * conf.filesOpenCostInBytes * cores / 8, 1L, cores).toDF()
    assert(splitPartitions(large) >= cores)
    val c = new SparkSqlConnector(spark)
    c.initialize("Sl", "slarge", large)
    val view = spark.table("slarge")
    assert(partitions(view) == cores)
    assert(view.queryExecution.optimizedPlan.collect { case r: Repartition => r }.isEmpty,
           view.queryExecution.optimizedPlan)
  }

  test("a collection is coalesced to the count Spark's split settings give it") {
    val size = data.queryExecution.optimizedPlan.stats.sizeInBytes
    val key  = "spark.sql.files.openCostInBytes"
    val was  = spark.conf.getOption(key)
    spark.conf.set(key, (size / 3 + 1).toString)
    try {
      val expected = splitPartitions(data)
      assume(expected < partitions(data), s"the session splits the generated collection into ${partitions(data)} partitions")
      assert(partitions(SparkBacked.stored(data)) == expected)
    } finally was.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  test("an empty collection loads and counts 0 on every connector") {
    val empty = data.limit(0)
    val duck  = new DuckDbConnector()
    try {
      (connectors :+ duck).foreach { c =>
        c.initialize("Sl", "sempty", empty)
        val pf = PolyFrame(c, "Sl", "sempty", WisconsinData.columns)
        assert(pf.filter(col("ten") === 4).count() == 0L, c.name)
        assert(pf.collectAll().size == 0, c.name)
      }
    } finally duck.close()
  }
}
