package repro.connector

import org.apache.spark.sql.catalyst.expressions.aggregate.CollectList
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.catalyst.plans.logical.{Generate, Join}
import org.json4s.JString
import org.json4s.jackson.JsonMethods.compact
import repro.{Oracle, SparkSpec}
import repro.core.{LocalResult, PolyFrame}
import repro.core.dsl._
import repro.wisconsin.WisconsinData

/** MiniMongo and MiniCypher lower each action to one Spark SQL query:
  * every Spark-backed connector gets its plan from `spark.sql`, the
  * `$lookup` + `$unwind` pair plans as one inner join, and no literal or
  * alias can change the shape of the lowered text.
  */
class LoweringSpec extends SparkSpec {

  private lazy val data = WisconsinData.generate(spark, 500).cache()
  private lazy val sparkConn  = init(new SparkSqlConnector(spark))
  private lazy val mongoConn  = init(new MongoConnector(spark))
  private lazy val cypherConn = init(new CypherConnector(spark))
  private def init[C <: SparkBacked](c: C): C = {
    Seq("wisconsin", "wisconsin2").foreach(t => c.initialize("Low", t, data))
    c
  }

  private def planOf(c: SparkBacked, pf: PolyFrame, query: PolyFrame => String) =
    c.plan(c.preProcess(query(pf), "wisconsin"), "wisconsin").queryExecution

  test("every Spark-backed connector plans through spark.sql: parsing and analysis are tracked") {
    Seq(sparkConn, mongoConn, cypherConn).foreach { c =>
      val pf = PolyFrame(c, "Low", "wisconsin").filter(col("ten") === 4).select("unique1", "ten")
      val phases = planOf(c, pf, _.headQuery(5)).tracker.phases
      assert(phases.contains("parsing") && phases.contains("analysis"), s"${c.name}: ${phases.keys}")
    }
  }

  test("expression 12 on MiniMongo plans one inner join, with no Generate and no collect_list") {
    val pf = PolyFrame(mongoConn, "Low", "wisconsin")
      .join(PolyFrame(mongoConn, "Low", "wisconsin2"), "unique1", "unique1")
    val plan = planOf(mongoConn, pf, _.countQuery).optimizedPlan
    assert(plan.collect { case j: Join => j.joinType } == Seq(Inner), plan)
    assert(plan.collect { case g: Generate => g }.isEmpty, plan)
    assert(!plan.collect { case n => n.expressions }.flatten.exists(_.exists(_.isInstanceOf[CollectList])), plan)
    assert(pf.count() == 500L)
  }

  test("an action keeps the collections it reads cached, and reading them again adds no temp view") {
    def views = spark.catalog.listTables().collect().map(_.name).toSet
    def actions(): Unit = Seq(mongoConn, cypherConn).foreach { c =>
      val pf = PolyFrame(c, "Low", "wisconsin")
      assert(pf.filter(col("ten") === 4).count() == 50L, c.name)
      assert(pf.join(PolyFrame(c, "Low", "wisconsin2"), "unique1", "unique1").count() == 500L, c.name)
    }
    actions()
    val registered = views
    actions()
    assert(views == registered)
    assert(data.storageLevel.useMemory, "the collection was uncached")
  }

  // -------------------------------------------------- quoting of the lowered text

  private lazy val strings = {
    import spark.implicits._
    Seq[(Long, String)]((1L, "it's"), (2L, "a\\b"), (3L, "x' OR '1'='1"), (4L, "plain"), (5L, null))
      .toDF("k", "s")
  }
  private lazy val mongoStrings  = { val c = new MongoConnector(spark); c.initialize("Low", "strs", strings); c }
  private lazy val cypherStrings = { val c = new CypherConnector(spark); c.initialize("Low", "strs", strings); c }

  private def json(s: String): String = compact(JString(s))
  /** A Cypher string or name in quote `q`; the tokenizer reads `\` as an escape. */
  private def cypherQuoted(s: String, q: Char): String =
    s"$q${s.replace("\\", "\\\\").replace(q.toString, s"\\$q")}$q"
  private def duckString(s: String): String = s"'${s.replace("'", "''")}'"
  private def duckName(s: String): String = "\"" + s.replace("\"", "\"\"") + "\""

  private def bothEqualDuck(mongoStages: String, cypher: String, reference: String): Unit = {
    val got: Seq[(String, LocalResult)] = Seq(
      "mongo"  -> mongoStrings.run(mongoStages, "strs"),
      "cypher" -> cypherStrings.run(cypher, "strs"))
    got.foreach { case (engine, r) => withClue(engine)(Oracle.assertEquivalent(r, reference, "strs" -> strings)) }
  }

  test("string literals with quotes, backslashes and an injection attempt filter like DuckDB") {
    Seq("it's", "a\\b", "x' OR '1'='1").foreach { lit =>
      bothEqualDuck(
        s"""{ "$$match": { "$$expr": { "$$eq": [ "$$s", { "$$literal": ${json(lit)} } ] } } }, { "$$project": { "k": 1 } }""",
        s"MATCH(t: strs) WITH t WHERE t.s = ${cypherQuoted(lit, '\'')} WITH t{'k': t.k} RETURN t",
        s"SELECT k FROM strs WHERE s = ${duckString(lit)}")
    }
  }

  test("aliases with a space, a dot and a backtick project and filter like DuckDB") {
    Seq("a b", "a.b", "a`b").foreach { alias =>
      bothEqualDuck(
        s"""{ "$$project": { ${json(alias)}: { "$$add": [ "$$k", 10 ] }, "s": 1 } },
           |{ "$$match": { "$$expr": { "$$gt": [ ${json("$" + alias)}, 12 ] } } }""".stripMargin,
        s"MATCH(t: strs) WITH t{${cypherQuoted(alias, '\'')}: t.k + 10, 's': t.s} " +
          s"WITH t WHERE t.${cypherQuoted(alias, '`')} > 12 RETURN t",
        s"SELECT k + 10 AS ${duckName(alias)}, s FROM strs WHERE k + 10 > 12")
    }
  }
}
