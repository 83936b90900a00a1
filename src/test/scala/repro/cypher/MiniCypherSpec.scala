package repro.cypher

import repro.SparkSpec
import repro.wisconsin.WisconsinData
import org.apache.spark.sql.DataFrame

/** MiniCypher clause parsing + execution on Spark. */
class MiniCypherSpec extends SparkSpec {
  import MiniCypher._

  private lazy val data: DataFrame = WisconsinData.generate(spark, 1000).cache()
  private def colls: String => DataFrame = {
    case "data" | "wisconsin" => data
    case "wisconsin2"         => data
    case other                => fail(s"unknown collection $other")
  }

  test("clause parsing covers every emitted shape") {
    val cs = parseClauses(
      """MATCH(t: data)
        |WITH t{'two': t.two, 'four': t.four}
        |WITH t WHERE t.ten = 4
        |WITH { 'twenty': t.twenty, 'max_four': max(t.four) } AS t
        |WITH t ORDER BY t.unique1 DESC
        |MATCH(r: wisconsin2) WHERE t.unique1 = r.unique1
        |WITH t, r
        |RETURN COUNT(*) AS t
        |RETURN t
        |LIMIT 5""".stripMargin)
    assert(cs(0) == MatchScan("t", "data"))
    assert(cs(1).isInstanceOf[WithProjection])
    assert(cs(2).isInstanceOf[WithWhere])
    assert(cs(3).isInstanceOf[WithGroup])
    assert(cs(4) == WithOrder("t", CypherExpr.Ref("t", "unique1"), desc = true))
    assert(cs(5) == MatchJoin("r", "wisconsin2",
      CypherExpr.Bin("=", CypherExpr.Ref("t", "unique1"), CypherExpr.Ref("r", "unique1"))))
    assert(cs(6) == WithVars(Seq("t", "r")))
    assert(cs(7) == ReturnCount("t"))
    assert(cs(8) == ReturnVar("t"))
    assert(cs(9) == LimitClause(5))
  }

  test("map entries handle nested parens/braces and quoted aliases") {
    val Seq(_, WithProjection("t", fs)) =
      parseClauses("MATCH(t: data) WITH t{'a': t.a, `b c`: upper(t.b), 'd': toInteger(t.x = 'x, y: {z}')}")
    assert(fs.map(_._1) == Seq("a", "b c", "d"))
    assert(fs(2)._2 == CypherExpr.Call("toInteger",
      List(CypherExpr.Bin("=", CypherExpr.Ref("t", "x"), CypherExpr.Str("x, y: {z}")))))
  }

  test("clauses need no line breaks, and a string literal may span lines") {
    assert(parseClauses("MATCH(t: data) WITH t WHERE t.s = \"a\nMATCH(b)\" RETURN COUNT(*) AS t") == Seq(
      MatchScan("t", "data"),
      WithWhere("t", CypherExpr.Bin("=", CypherExpr.Ref("t", "s"), CypherExpr.Str("a\nMATCH(b)"))),
      ReturnCount("t")))
  }

  private def runQ(q: String): org.apache.spark.sql.DataFrame = MiniCypher.run(q, colls)

  test("scan + count") {
    val df = runQ("MATCH(t: data)\nRETURN COUNT(*) AS t")
    assert(df.collect().head.getLong(0) == 1000L)
  }

  test("projection + RETURN flattens the map") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t{'two': t.two, 'four': t.four}
        |RETURN t
        |LIMIT 5""".stripMargin)
    assert(df.columns.toSeq == Seq("two", "four"))
    assert(df.count() == 5)
  }

  test("filter via WITH t WHERE") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t WHERE t.ten = 4
        |RETURN COUNT(*) AS t""".stripMargin)
    assert(df.collect().head.getLong(0) == 100L)
  }

  test("conjunctive filter (expression 3 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t WHERE t.ten = 4 AND t.twentyPercent = 4 AND t.two = 0
        |RETURN COUNT(*) AS t""".stripMargin)
    assert(df.collect().head.getLong(0) == 100L)
  }

  test("implicit-grouping aggregation (expression 8 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH { 'twenty': t.twenty, 'max_four': max(t.four) } AS t
        |RETURN t""".stripMargin)
    val rows = df.collect().map(r => r.getInt(0) -> r.getInt(1)).toMap
    assert(rows.size == 20)
    // four = u1 % 4, twenty = u1 % 20: group k has max(four) = k % 4
    rows.foreach { case (twenty, maxFour) => assert(maxFour == twenty % 4) }
  }

  test("global aggregation (expression 6 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t{'unique1': t.unique1}
        |WITH { 'max_unique1': max(t.unique1) } AS t
        |RETURN t""".stripMargin)
    assert(df.collect().head.getLong(0) == 999L)
  }

  test("ORDER BY DESC + LIMIT (expression 9 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t ORDER BY t.unique1 DESC
        |RETURN t
        |LIMIT 5""".stripMargin)
    assert(df.select("unique1").collect().map(_.getLong(0)).toSeq == Seq(999L, 998L, 997L, 996L, 995L))
  }

  test("ascending ORDER BY") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t ORDER BY t.unique1
        |RETURN t
        |LIMIT 3""".stripMargin)
    assert(df.select("unique1").collect().map(_.getLong(0)).toSeq == Seq(0L, 1L, 2L))
  }

  test("join via second MATCH (expression 12 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |MATCH(r: wisconsin2) WHERE t.unique1 = r.unique1
        |WITH t, r
        |RETURN COUNT(*) AS t""".stripMargin)
    assert(df.collect().head.getLong(0) == 1000L)
  }

  test("IS NULL counts missing values (expression 13 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t WHERE t.tenPercent IS NULL
        |RETURN COUNT(*) AS t""".stripMargin)
    assert(df.collect().head.getLong(0) == 100L)
  }

  test("upper() in a projection (expression 5 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t{'stringu1': t.stringu1}
        |WITH t{'stringu1': upper(t.stringu1)}
        |RETURN t
        |LIMIT 5""".stripMargin)
    val vs = df.collect().map(_.getString(0))
    assert(vs.length == 5)
    vs.foreach(s => assert(s == s.toUpperCase))
  }

  test("toInteger of a comparison (get_dummies building block)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t{'d': toInteger(t.string4 = "A")}
        |RETURN t""".stripMargin)
    val total = df.collect().map(_.getLong(0)).sum
    assert(total == 250L)
  }

  test("range filter (expression 11 shape)") {
    val df = runQ(
      """MATCH(t: data)
        |WITH t WHERE t.onePercent >= 40 AND t.onePercent <= 60
        |RETURN COUNT(*) AS t""".stripMargin)
    assert(df.collect().head.getLong(0) == 210L)
  }

  test("unparseable clause raises CypherError") {
    intercept[CypherError](parseClauses("FROBNICATE x"))
  }

  test("a malformed join predicate raises at parse time") {
    intercept[CypherError](parseClauses(
      """MATCH(t: data)
        |MATCH(r: wisconsin2) WHERE t.unique1 = = r.unique1
        |WITH t, r""".stripMargin))
  }
}
