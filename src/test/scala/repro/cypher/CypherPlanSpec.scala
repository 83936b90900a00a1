package repro.cypher

import repro.{Oracle, SparkSpec}
import repro.connector.CypherConnector
import repro.core.{NestedChain, PolyFrame}
import repro.core.dsl._
import repro.wisconsin.WisconsinData
import org.apache.spark.sql.catalyst.expressions.{CreateNamedStruct, GetStructField}
import org.apache.spark.sql.catalyst.plans.logical.{LogicalPlan, Project}

/** The Cypher retarget against the paper's "efficient query optimizer"
  * requirement: the plans MiniCypher hands Catalyst must collapse like the
  * Spark SQL ones do (`OptimizerCollapseSpec`), and its per-variable state
  * must keep joined variables apart.
  */
class CypherPlanSpec extends SparkSpec {

  private lazy val data = WisconsinData.generate(spark, 500).cache()
  private lazy val conn = {
    val c = new CypherConnector(spark)
    c.initialize("Cy", "cwisc", data)
    c
  }

  private def buildsStructs(p: LogicalPlan): Boolean =
    p.collect { case n => n.expressions }.flatten.exists(_.exists {
      case _: CreateNamedStruct | _: GetStructField => true
      case _                                         => false
    })

  test("stacked WITH t{...} projections over all 16 columns optimize to one Project, no structs") {
    val cols = WisconsinData.columns
    val perms = Seq(cols.reverse, cols.drop(5) ++ cols.take(5), cols.sortBy(_.length), cols.sorted)
    // PolyFrame fuses the four selects into one; the rules still nest them
    val fused = perms.foldLeft(PolyFrame(conn, "Cy", "cwisc", cols))((f, p) => f.select(p: _*))
      .filter(col("ten") === 4).collectQuery
    assert("(?m)^\\s*WITH t\\{".r.findAllIn(fused).size == 1, fused)
    val query = perms.foldLeft(NestedChain(conn.lang, "Cy", "cwisc"))((f, p) => f.select(p: _*))
      .filter(col("ten") === 4).collectQuery
    assert("(?m)^\\s*WITH t\\{".r.findAllIn(query).size == 4, query)
    val qe = conn.plan(query, "cwisc").queryExecution
    Seq(qe.analyzed, qe.optimizedPlan).foreach(p => assert(!buildsStructs(p), s"struct state in:\n$p"))
    val projects = qe.optimizedPlan.collect { case p: Project => p }.size
    assert(projects <= 1, s"projections did not collapse:\n${qe.optimizedPlan}")
    Oracle.assertEquivalent(
      conn.run(query, "cwisc"),
      s"SELECT ${perms.last.mkString(", ")} FROM cwisc WHERE ten = 4",
      "cwisc" -> data)
  }

  test("a join on clashing attribute names filters on r and returns only t's columns") {
    import spark.implicits._
    val lhs = Seq((1L, 10L, "a"), (2L, 20L, "b"), (3L, 30L, "c"), (4L, 40L, "d"), (6L, 60L, "f"))
      .toDF("k", "v", "name")
    val rhs = Seq((1L, 1L), (2L, 2L), (3L, 3L), (4L, 4L), (4L, 5L), (6L, 6L), (7L, 7L)).toDF("k", "v")
    val c = new CypherConnector(spark)
    c.initialize("Cy", "lhs", lhs)
    c.initialize("Cy", "rhs", rhs)
    val got = c.run(
      """MATCH(t: lhs)
        |MATCH(r: rhs) WHERE t.k = r.k
        |WITH t, r
        |WITH t WHERE r.v > 2
        |RETURN t""".stripMargin, "lhs")
    assert(got.columns == Seq("k", "v", "name"))
    assert(got.size == 4)
    // the reference compares values too: t.v (10, 20, …), never r.v
    Oracle.assertEquivalent(got,
      "SELECT l.k, l.v, l.name FROM lhs l JOIN rhs r ON l.k = r.k WHERE r.v > 2",
      "lhs" -> lhs, "rhs" -> rhs)
  }
}
