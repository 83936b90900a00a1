package repro.core

import repro.SparkSpec
import repro.connector.SparkSqlConnector
import repro.core.dsl._
import repro.wisconsin.WisconsinData
import org.apache.spark.sql.catalyst.plans.logical.{Filter, LogicalPlan, Project}

/** The paper's backend requirement: "an efficient query optimizer —
  * executing subqueries without any optimization could result in
  * unnecessary data scans". For the Spark retarget this means Catalyst
  * must collapse PolyFrame's per-operation nested subqueries, which these
  * tests verify on the optimized logical plan.
  */
class OptimizerCollapseSpec extends SparkSpec {

  private lazy val conn = {
    val c = new SparkSqlConnector(spark)
    c.initialize("Opt", "owisc", WisconsinData.generate(spark, 200).cache())
    c
  }
  private def base = PolyFrame(conn, "Opt", "owisc", WisconsinData.columns)

  private def countNodes(p: LogicalPlan, pred: LogicalPlan => Boolean): Int =
    p.collect { case n if pred(n) => n }.size

  test("a 4-deep transformation chain optimizes to a flat plan") {
    val pf = base
      .filter(col("ten") === 4)
      .select("unique1", "ten")
      .sortValues("unique1", ascending = false)
    val q  = pf.headQuery(5)
    val qe = conn.plan(q, "owisc").queryExecution
    val analyzedProjects  = countNodes(qe.analyzed,  _.isInstanceOf[Project])
    val optimizedProjects = countNodes(qe.optimizedPlan, _.isInstanceOf[Project])
    // the nested SELECTs are visible before optimization...
    assert(analyzedProjects >= 3, s"expected nested projects, got $analyzedProjects")
    // ...and collapse to (at most) a single Project afterwards
    assert(optimizedProjects <= 1, s"plan did not collapse:\n${qe.optimizedPlan}")
    assert(countNodes(qe.optimizedPlan, _.isInstanceOf[Filter]) <= 1)
  }

  /** The nested text the rules compose one step at a time; PolyFrame
    * itself ships a run of filters as one `q_filter`.
    */
  private def nested = NestedChain(conn.lang, "Opt", "owisc")

  test("nested filters merge into one Filter") {
    val q  = nested.filter(col("ten") === 4).filter(col("two") === 0).filter(col("four") === 0).countQuery
    assert("WHERE".r.findAllIn(q).size == 3, q)
    val qe = conn.plan(q, "owisc").queryExecution
    assert(countNodes(qe.optimizedPlan, _.isInstanceOf[Filter]) == 1,
      s"filters not merged:\n${qe.optimizedPlan}")
  }

  test("execution of the optimized nested query gives the same result as a flat query") {
    val q = this.nested.filter(col("ten") === 4).filter(col("two") === 0).countQuery
    val nested = conn.plan(q, "owisc").collect().head.getLong(0)
    val flat = conn.plan(
      "SELECT COUNT(*) AS count FROM owisc WHERE ten = 4 AND two = 0", "owisc").collect().head.getLong(0)
    assert(nested == flat)
    assert(nested == 20L)
    assert(base.filter(col("ten") === 4).filter(col("two") === 0).count() == flat)
  }

  test("projection pruning reaches through the subquery nesting") {
    val pf = base.select("unique1")
    val qe = conn.plan(pf.collectQuery, "owisc").queryExecution
    // the scan should output only what the final projection needs
    assert(qe.optimizedPlan.output.map(_.name) == Seq("unique1"))
  }
}
