package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.languages.Languages
import TestSupport.{frame, norm}

/** Fig. 3's sample rewrite rules and the paper's worked composition
  * example: "to get the minimum value of 'age' from a dataset named
  * 'Users' in a database named 'Test', PolyFrame combines the rewrite
  * results of operations 1, 2, and 3".
  */
class RewriteRuleSpec extends AnyFunSuite {

  test("Fig. 3 row 1 — records rule per language") {
    assert(Languages.sqlpp.sub("QUERIES", "q_all",
      "namespace" -> "Test", "collection" -> "Users")
      == "SELECT VALUE t FROM Test.Users t")
    assert(Languages.mongo.sub("QUERIES", "q_all") == """{ "$match": {} }""")
    assert(Languages.cypher.sub("QUERIES", "q_all", "collection" -> "Users")
      == "MATCH(t: Users)")
  }

  test("paper's min-age composition example (SQL++)") {
    val af = frame(Languages.sqlpp)
    val q  = af("age").aggQueryText("min")
    assert(norm(q) ==
      "SELECT MIN(t.age) AS min_age FROM (SELECT t.age FROM (SELECT VALUE t FROM Test.Users t) t) t")
  }

  test("paper's min-age composition example (MongoDB)") {
    val af = frame(Languages.mongo)
    val q  = af("age").aggQueryText("min")
    assert(norm(q) == norm(
      """{ "$match": {} },
        |{ "$project": { "age": 1 } },
        |{ "$group": { "_id": {}, "min_age": { "$min": "$age" } } },
        |{ "$project": { "_id": 0 } },
        |{ "$project": { "_id": 0 } }""".stripMargin))
  }

  test("paper's min-age composition example (Cypher)") {
    val af = frame(Languages.cypher)
    val q  = af("age").aggQueryText("min")
    assert(norm(q) == norm(
      """MATCH(t: Users)
        |WITH t{'age': t.age}
        |WITH { 'min_age': min(t.age) } AS t
        |RETURN t""".stripMargin))
  }

  test("describe() generic rule chains all five aggregates (SQL++)") {
    val af = frame(Languages.sqlpp)
    val q = Languages.sqlpp.sub("QUERIES", "q_agg_value",
      "subquery" -> af.query,
      "aggs" -> Languages.sqlpp.joinFragments(Seq("min", "max", "avg", "std", "count").map { f =>
        val agg = Languages.sqlpp.sub("FUNCTIONS", f, "attribute" -> "age")
        Languages.sqlpp.sub("ATTRIBUTES", "agg_alias", "alias" -> s"${f}_age", "agg" -> agg)
      }))
    assert(norm(q) == ("SELECT MIN(t.age) AS min_age, MAX(t.age) AS max_age, AVG(t.age) AS avg_age, " +
      "STDDEV_POP(t.age) AS std_age, COUNT(t.age) AS count_age " +
      "FROM (SELECT VALUE t FROM Test.Users t) t"))
  }

  test("attribute_separator folds fragment lists") {
    assert(Languages.sql.joinFragments(Seq("a", "b", "c")) == "a, b, c")
    assert(Languages.mongo.joinFragments(Seq(""""a": 1""", """"b": 1""")) == """"a": 1, "b": 1""")
    assert(Languages.cypher.joinFragments(Seq("x")) == "x")
  }

  test("every language defines the full rule vocabulary") {
    val queryKeys = Seq("q_all", "q_project", "q_project_value", "q_filter",
      "q_groupby", "q_sort", "q_join", "q_agg_value", "q_count_all")
    val cmpKeys  = Seq("eq", "gt", "lt", "ge", "le", "isna")
    val mathKeys = Seq("add", "sub", "mul", "div", "mod")
    val fnKeys   = Seq("min", "max", "avg", "std", "count", "sum")
    for ((name, lang) <- Languages.all) {
      queryKeys.foreach(k => assert(lang.has("QUERIES", k), s"$name missing [QUERIES] $k"))
      cmpKeys.foreach(k => assert(lang.has("COMPARISON STATEMENTS", k), s"$name missing $k"))
      // `!=` is `not` over `eq`, so no language writes its own
      assert(!lang.has("COMPARISON STATEMENTS", "ne"), s"$name defines ne")
      mathKeys.foreach(k => assert(lang.has("ARITHMETIC STATEMENTS", k), s"$name missing $k"))
      fnKeys.foreach(k => assert(lang.has("FUNCTIONS", k), s"$name missing $k"))
      Seq("and", "or", "not").foreach(k => assert(lang.has("LOGICAL STATEMENTS", k), s"$name missing $k"))
      Seq("limit", "return_all").foreach(k => assert(lang.has("LIMIT", k), s"$name missing $k"))
      Seq("to_int", "to_str").foreach(k => assert(lang.has("TYPE CONVERSION", k), s"$name missing $k"))
      Seq("upper", "lower").foreach(k => assert(lang.has("STRING FUNCTIONS", k), s"$name missing $k"))
      Seq("group_key", "group_output").foreach(k => assert(lang.has("ATTRIBUTES", k), s"$name missing $k"))
    }
  }

  private implicit class AggText(pf: PolyFrame) {
    /** Query that aggValue(fn) would ship, without executing. */
    def aggQueryText(fn: String): String = {
      val lang = pf.connector.lang
      val attr = pf.seriesName.get
      val agg  = lang.sub("FUNCTIONS", fn, "attribute" -> attr)
      val item = lang.sub("ATTRIBUTES", "agg_alias", "alias" -> s"${fn}_$attr", "agg" -> agg)
      val q = lang.sub("QUERIES", "q_agg_value", "subquery" -> pf.query, "aggs" -> item)
      lang.sub("LIMIT", "return_all", "subquery" -> q)
    }
  }
}
