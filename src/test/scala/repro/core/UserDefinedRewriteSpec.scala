package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.languages.Languages
import TestSupport.norm

/** User-Defined Rewrites (paper contribution 4): users can layer custom
  * rules over a stock configuration — or supply a whole new language.
  */
class UserDefinedRewriteSpec extends AnyFunSuite {

  test("overriding one rule keeps all others") {
    val custom = Languages.sql.withOverrides(
      """[LIMIT]
        |limit = $subquery
        | FETCH FIRST $num ROWS ONLY
        |""".stripMargin)
    assert(custom.sub("LIMIT", "limit", "subquery" -> "Q", "num" -> "5")
      == "Q\nFETCH FIRST 5 ROWS ONLY")
    // untouched rules still come from the stock config
    assert(custom.sub("QUERIES", "q_count_all", "subquery" -> "Q")
      == """SELECT COUNT(*) AS "count" FROM (Q) t""")
    assert(custom.sub("LIMIT", "return_all", "subquery" -> "Q") == "Q")
  }

  test("the stock Spark SQL config is the SQL rules plus overrides, under its own name") {
    val (spark, sql) = (Languages.sparkSql, Languages.sql)
    assert(spark.name == "sparksql")
    assert(spark.sections.keySet == sql.sections.keySet)
    Seq("q_project", "q_filter", "q_groupby", "q_sort", "q_agg_value").foreach(k =>
      assert(spark.template("QUERIES", k) == sql.template("QUERIES", k), k))
    Seq("COMPARISON STATEMENTS", "LIMIT").foreach(sec =>
      assert(spark.sections(sec) == sql.sections(sec), sec))
    // same literal templates; Spark's parser reads backslash escapes, so its strings escape `\` and `'` with one
    Seq("string", "null").foreach(k => assert(spark.template("LITERALS", k) == sql.template("LITERALS", k), k))
    assert(spark.template("LITERALS", "escaped_chars") == "\\'" && spark.template("LITERALS", "escape") == "\\$char")
    assert(spark.template("ATTRIBUTES", "sort_asc_attr") == "t.$attribute NULLS LAST")
    assert(spark.template("TYPE CONVERSION", "to_str") == "CAST($statement AS STRING)")
  }

  test("overrides may add brand-new rules (system-specific capability)") {
    val custom = Languages.mongo.withOverrides(
      """[SAVE RESULTS]
        |to_collection = $subquery,
        | { "$out": "$collection" }
        |""".stripMargin)
    assert(custom.sub("SAVE RESULTS", "to_collection",
      "subquery" -> """{ "$match": {} }""", "collection" -> "out1")
      == "{ \"$match\": {} },\n{ \"$out\": \"out1\" }")
  }

  test("a PolyFrame built over a customized config uses the custom rules") {
    val custom = Languages.sql.withOverrides(
      """[QUERIES]
        |q_filter = SELECT t.* FROM ($subquery) t WHERE ($condition)
        |""".stripMargin)
    val pf = PolyFrame(new NullConnector(custom), "Test", "Users", Seq("lang"))
      .filter(dsl.col("lang") === "en")
    assert(norm(pf.query) ==
      """SELECT t.* FROM (SELECT * FROM Test.Users t) t WHERE (t."lang" = 'en')""")
  }

  test("an entirely user-supplied minimal language works end-to-end (text)") {
    val tiny = LanguageConfig("tiny",
      """[QUERIES]
        |q_all = scan($namespace/$collection)
        |q_filter = filter($subquery; $condition)
        |q_count_all = count($subquery)
        |[ATTRIBUTES]
        |single_attribute = @$attribute
        |attribute_separator = $left|$right
        |[COMPARISON STATEMENTS]
        |eq = $left == $right
        |[LITERALS]
        |string = <$value>
        |null = nil
        |[LIMIT]
        |limit = take($subquery, $num)
        |return_all = $subquery
        |""".stripMargin)
    val pf = PolyFrame(new NullConnector(tiny), "db", "users", Seq("lang"))
      .filter(dsl.col("lang") === "en")
    assert(pf.query == "filter(scan(db/users); @lang == <en>)")
  }
}
