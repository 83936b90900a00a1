package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.dsl._
import repro.core.languages.Languages
import LanguageConfig.translate

/** Per-language translation of the expression AST via the rewrite rules
  * in [ARITHMETIC|LOGICAL|COMPARISON STATEMENTS] / [TYPE CONVERSION] /
  * [STRING FUNCTIONS] — the Fig. 3 / Appendix B-C rule families.
  */
class ExprTranslationSpec extends AnyFunSuite {

  private val sqlpp  = Languages.sqlpp
  private val sql    = Languages.sql
  private val spark  = Languages.sparkSql
  private val mongo  = Languages.mongo
  private val cypher = Languages.cypher

  test("attribute reference") {
    assert(translate(col("age"), sqlpp)  == "t.age")
    assert(translate(col("age"), sql)    == """t."age"""")
    assert(translate(col("age"), spark)  == "t.age")
    assert(translate(col("age"), cypher) == "t.age")
    assert(translate(col("age"), mongo)  == """"$age"""")
  }

  test("equality comparison with string literal") {
    val e = col("lang") === "en"
    assert(translate(e, sqlpp)  == """t.lang = "en"""")
    assert(translate(e, sql)    == """t."lang" = 'en'""")
    assert(translate(e, spark)  == "t.lang = 'en'")
    // a Mongo string literal is wrapped in $literal, so "$x" stays a string
    assert(translate(e, mongo)  == """{ "$eq": [ "$lang", { "$literal": "en" } ] }""")
    assert(translate(e, cypher) == """t.lang = "en"""")
  }

  test("a string literal is escaped by its language's [LITERALS] rule") {
    val e = col("s") === """it's a\b "q""""
    assert(translate(e, sqlpp)  == """t.s = "it's a\\b \"q\""""")
    assert(translate(e, sql)    == """t."s" = 'it''s a\b "q"'""")
    assert(translate(e, spark)  == """t.s = 'it\'s a\\b "q"'""")
    assert(translate(e, mongo)  == """{ "$eq": [ "$s", { "$literal": "it's a\\b \"q\"" } ] }""")
    assert(translate(e, cypher) == """t.s = "it's a\\b \"q\""""")
    // a configuration that declares no escaping ships the value as it is
    val bare = LanguageConfig("bare", "[ATTRIBUTES]\nsingle_attribute = $attribute\n" +
      "[COMPARISON STATEMENTS]\neq = $left == $right\n[LITERALS]\nstring = <$value>\n")
    assert(translate(e, bare) == """s == <it's a\b "q">""")
  }

  test("numeric comparisons") {
    assert(translate(col("ten") === 4, spark)  == "t.ten = 4")
    // `!=` has no rule: it is the language's two-valued `not` over its `eq`
    assert(translate(col("ten") =!= 4, sql)    == """((t."ten" = 4) IS NOT TRUE)""")
    assert(translate(col("ten") =!= 4, cypher) == "NOT coalesce(t.ten = 4, false)")
    assert(translate(col("ten") =!= 4, sqlpp)  == "NOT coalesce(t.ten = 4, false)")
    assert(translate(PFExpr.Cmp("ne", lit(4), col("ten")), mongo) == """{ "$not": [ { "$eq": [ 4, "$ten" ] } ] }""")
    assert(translate(col("onePercent") >= 40, spark) == "t.onePercent >= 40")
    assert(translate(col("onePercent") <= 60, mongo) == """{ "$lte": [ "$onePercent", 60 ] }""")
    assert(translate(col("x") > 1, mongo) == """{ "$gt": [ "$x", 1 ] }""")
    assert(translate(col("x") < 1, sqlpp) == "t.x < 1")
  }

  test("logical conjunction chains") {
    val e = (col("ten") === 4) && (col("two") === 0)
    assert(translate(e, spark)  == "t.ten = 4 AND t.two = 0")
    assert(translate(e, cypher) == "t.ten = 4 AND t.two = 0")
    assert(translate(e, mongo)
      == """{ "$and": [ { "$eq": [ "$ten", 4 ] }, { "$eq": [ "$two", 0 ] } ] }""")
  }

  test("three-way AND nests left (as Pandas & does)") {
    val e = (col("a") === 1) && (col("b") === 2) && (col("c") === 3)
    assert(translate(e, spark) == "t.a = 1 AND t.b = 2 AND t.c = 3")
    assert(translate(e, mongo) ==
      """{ "$and": [ { "$and": [ { "$eq": [ "$a", 1 ] }, { "$eq": [ "$b", 2 ] } ] }, { "$eq": [ "$c", 3 ] } ] }""")
  }

  test("disjunction and negation") {
    val e = (col("a") === 1) || (col("b") === 2)
    assert(translate(e, spark) == "(t.a = 1 OR t.b = 2)")
    assert(translate(e, mongo)
      == """{ "$or": [ { "$eq": [ "$a", 1 ] }, { "$eq": [ "$b", 2 ] } ] }""")
    // NOT is two-valued, as Pandas' `~`: NOT of a missing comparison is true
    assert(translate(!(col("a") === 1), spark) == "((t.a = 1) IS NOT TRUE)")
    assert(translate(!(col("a") === 1), mongo) == """{ "$not": [ { "$eq": [ "$a", 1 ] } ] }""")
    // parenthesized, so an OR inside an AND and a NOT of an AND keep their grouping
    assert(translate(e && (col("c") === 3), sql) == """(t."a" = 1 OR t."b" = 2) AND t."c" = 3""")
    assert(translate(!((col("a") === 1) && (col("b") === 2)), cypher) == "NOT coalesce(t.a = 1 AND t.b = 2, false)")
  }

  test("arithmetic operations") {
    assert(translate(col("a") + 1, spark)  == "t.a + 1")
    assert(translate(col("a") - 1, sql)    == """t."a" - 1""")
    assert(translate(col("a") * 2, cypher) == "t.a * 2")
    assert(translate(col("a") / 2, sqlpp)  == "t.a / 2")
    assert(translate(col("a") % 2, spark)  == "t.a % 2")
    assert(translate(col("a") + 1, mongo)  == """{ "$add": [ "$a", 1 ] }""")
    assert(translate(col("a") % 2, mongo)  == """{ "$mod": [ "$a", 2 ] }""")
  }

  test("missing-value test (isna) — the expression-13 rules") {
    assert(translate(col("tenPercent").isna, sqlpp)  == "t.tenPercent IS UNKNOWN")
    assert(translate(col("tenPercent").isna, sql)    == """t."tenPercent" IS NULL""")
    assert(translate(col("tenPercent").isna, spark)  == "t.tenPercent IS NULL")
    assert(translate(col("tenPercent").isna, cypher) == "t.tenPercent IS NULL")
    // MongoDB uses BSON ordering: missing/null sorts below null.
    assert(translate(col("tenPercent").isna, mongo)  == """{ "$lt": [ "$tenPercent", null ] }""")
  }

  test("string functions") {
    val e = PFExpr.Func("upper", col("stringu1"))
    assert(translate(e, sqlpp)  == "UPPER(t.stringu1)")
    assert(translate(e, sql)    == """upper(t."stringu1")""")
    assert(translate(e, spark)  == "upper(t.stringu1)")
    assert(translate(e, mongo)  == """{ "$toUpper": "$stringu1" }""")
    assert(translate(e, cypher) == "upper(t.stringu1)")
    // Mongo expressions are whole JSON values, so they nest
    assert(translate(PFExpr.Func("upper", PFExpr.Func("lower", col("s"))), mongo)
      == """{ "$toUpper": { "$toLower": "$s" } }""")
  }

  test("type conversion of a comparison (get_dummies building block)") {
    val e = PFExpr.Func("to_int", col("string4") === "A")
    assert(translate(e, sql)    == """CAST(t."string4" = 'A' AS INTEGER)""")
    assert(translate(e, spark)  == "CAST(t.string4 = 'A' AS INT)")
    assert(translate(e, mongo)  == """{ "$toInt": { "$eq": [ "$string4", { "$literal": "A" } ] } }""")
    assert(translate(e, cypher) == """toInteger(t.string4 = "A")""")
  }

  test("null literal") {
    // as in Pandas, `x == None` is false and `x != None`, its `not`, true on every row
    for (lang <- Languages.all.values) {
      assert(translate(col("a") === null, lang) == "false", lang.name)
      assert(translate(col("a") =!= null, lang) == translate(!lit(false), lang), lang.name)
      assert(translate(PFExpr.Cmp("eq", PFExpr.Lit(null), col("a")), lang) == "false", lang.name)
    }
    assert(translate(col("a") =!= null, spark) == "((false) IS NOT TRUE)")
    assert(translate(PFExpr.Func("to_str", PFExpr.Lit(null)), spark) == "CAST(NULL AS STRING)")
    assert(translate(PFExpr.Func("to_str", PFExpr.Lit(null)), mongo) == """{ "$toString": null }""")
  }

  test("whole double literals render as integers") {
    assert(translate(col("a") === 4.0, spark) == "t.a = 4")
    // beyond a Long's exact range a double keeps its value, not Long.MaxValue
    assert(translate(col("a") < 1e19, spark) == "t.a < 1.0E19")
  }

  test("series alias derivation") {
    assert(PFExpr.seriesAlias(col("lang") === "en") == "is_eq")
    assert(PFExpr.seriesAlias(col("x") > 1) == "is_gt")
    assert(PFExpr.seriesAlias(col("x").isna) == "is_na")
    assert(PFExpr.seriesAlias(PFExpr.Func("upper", col("s"))) == "upper")
  }

  test("Fig. 3 aggregate rule templates (rows 3-7)") {
    def agg(l: LanguageConfig, fn: String) = l.sub("FUNCTIONS", fn, "attribute" -> "age")
    assert(agg(sqlpp, "min")  == "MIN(t.age)")
    assert(agg(sqlpp, "max")  == "MAX(t.age)")
    assert(agg(sqlpp, "avg")  == "AVG(t.age)")
    assert(agg(sqlpp, "count") == "COUNT(t.age)")
    assert(agg(mongo, "min")  == """"$min": "$age"""")
    assert(agg(mongo, "max")  == """"$max": "$age"""")
    assert(agg(mongo, "avg")  == """"$avg": "$age"""")
    assert(agg(mongo, "std")  == """"$stdDevPop": "$age"""")
    assert(agg(cypher, "min") == "min(t.age)")
    assert(agg(cypher, "max") == "max(t.age)")
    assert(agg(cypher, "avg") == "avg(t.age)")
    assert(agg(cypher, "std") == "stDevP(t.age)")
    assert(agg(cypher, "count") == "count(t.age)")
  }

  test("missing rule raises a clear error") {
    val ex = intercept[NoSuchElementException](translate(PFExpr.Func("soundex", col("s")), spark))
    assert(ex.getMessage.contains("soundex"))
  }

  test("an aggregate is not a scalar function: map(\"max\") raises, naming it, in every config") {
    for (lang <- Languages.all.values) {
      val ex = intercept[NoSuchElementException](TestSupport.frame(lang)("name").map("max"))
      assert(ex.getMessage.contains("'max'"), lang.name)
    }
  }

  test("an untranslatable condition raises at filter, before any action, in every config") {
    for (lang <- Languages.all.values) {
      val cond = PFExpr.Cmp("eq", PFExpr.Func("soundex", col("name")), lit("x"))
      val ex = intercept[NoSuchElementException](TestSupport.frame(lang).filter(col("lang") === "en").filter(cond))
      assert(ex.getMessage.contains("soundex"), lang.name)
    }
  }
}
