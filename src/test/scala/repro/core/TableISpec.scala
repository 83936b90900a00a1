package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.dsl._
import repro.core.languages.Languages
import TestSupport.{frame, norm}

/** Golden tests for Table I — PolyFrame's incremental query formation for
  * the six operations of Fig. 2, in all four paper languages.
  *
  * Expected strings are this implementation's canonical output; where the
  * paper's typesetting differs cosmetically (quoting style, trailing
  * alias, `$`-prefix on Mongo field paths inside Table I vs its own
  * appendix) the divergence is noted in a comment on the assertion.
  */
class TableISpec extends AnyFunSuite {

  // --- operation chain of Fig. 2, built once per language ------------------
  private def chain(lang: LanguageConfig) = {
    val af1 = frame(lang)                              // AFrame('Test', 'Users')
    val af2 = af1("lang")                              // af['lang']
    val af3 = af2.projectExpr(col("lang") === "en")    // af['lang'] == 'en'
    val af4 = af1.filter(col("lang") === "en")         // af[af['lang'] == 'en']
    val af5 = af4.select("name", "address")            // ...[['name', 'address']]
    (af1, af2, af3, af4, af5, af5.headQueryText(10))
  }

  private implicit class HeadText(pf: PolyFrame) {
    /** The query head(n) would ship, without executing it. */
    def headQueryText(n: Int): String =
      pf.connector.lang.sub("LIMIT", "limit", "subquery" -> pf.query, "num" -> n.toString)
  }

  test("SQL++ — operations 1-6 match Table I") {
    val (a1, a2, a3, a4, a5, q6) = chain(Languages.sqlpp)
    assert(norm(a1.query) == "SELECT VALUE t FROM Test.Users t")
    assert(norm(a2.query) == "SELECT t.lang FROM (SELECT VALUE t FROM Test.Users t) t")
    assert(norm(a3.query) ==
      """SELECT VALUE t.lang = "en" FROM (SELECT t.lang FROM (SELECT VALUE t FROM Test.Users t) t) t""")
    assert(norm(a4.query) ==
      """SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = "en"""")
    assert(norm(a5.query) ==
      """SELECT t.name, t.address FROM (SELECT VALUE t FROM (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = "en") t""")
    assert(norm(q6) == norm(a5.query) + " LIMIT 10")
  }

  test("SQL++ — operation 6 equals the paper's Appendix A full product") {
    val (_, _, _, _, _, q6) = chain(Languages.sqlpp)
    // Appendix A: SELECT t.name, t.address FROM (SELECT VALUE t FROM
    //   (SELECT VALUE t FROM Test.Users t) t WHERE t.lang = 'en') t LIMIT 10;
    val paper = norm(
      """SELECT t.name, t.address
        |FROM (SELECT VALUE t
        |FROM (SELECT VALUE t
        |FROM Test.Users t) t
        |WHERE t.lang = "en") t
        |LIMIT 10""".stripMargin)
    assert(norm(q6) == paper)
  }

  test("SQL — operations 1-6 match Table I") {
    val (a1, a2, a3, a4, a5, q6) = chain(Languages.sql)
    // paper: SELECT * FROM Test.Users (we keep the uniform trailing alias)
    assert(norm(a1.query) == "SELECT * FROM Test.Users t")
    // paper: SELECT t.lang FROM (1) t (we quote identifiers, PostgreSQL-style)
    assert(norm(a2.query) == """SELECT t."lang" FROM (SELECT * FROM Test.Users t) t""")
    // paper: SELECT t.lang = "en" FROM (2) t (we alias the boolean column)
    assert(norm(a3.query) ==
      """SELECT t."lang" = 'en' AS "is_eq" FROM (SELECT t."lang" FROM (SELECT * FROM Test.Users t) t) t""")
    assert(norm(a4.query) ==
      """SELECT t.* FROM (SELECT * FROM Test.Users t) t WHERE t."lang" = 'en'""")
    assert(norm(a5.query) ==
      """SELECT t."name", t."address" FROM (SELECT t.* FROM (SELECT * FROM Test.Users t) t WHERE t."lang" = 'en') t""")
    assert(norm(q6) == norm(a5.query) + " LIMIT 10")
  }

  test("MongoDB — operations 1-6 match Table I") {
    val (a1, a2, a3, a4, a5, q6) = chain(Languages.mongo)
    assert(norm(a1.query) == """{ "$match": {} }""")
    assert(norm(a2.query) == """{ "$match": {} }, { "$project": { "lang": 1 } }""")
    // paper Table I writes ["lang","en"]; its own appendix uses the
    // correct field path ["$lang","en"], which we follow, with the string
    // literal wrapped in $literal (MongoDB reads it as "en" either way).
    assert(norm(a3.query) ==
      """{ "$match": {} }, { "$project": { "lang": 1 } }, { "$project": { "is_eq": { "$eq": [ "$lang", { "$literal": "en" } ] } } }""")
    assert(norm(a4.query) ==
      """{ "$match": {} }, { "$match": { "$expr": { "$eq": [ "$lang", { "$literal": "en" } ] } } }""")
    assert(norm(a5.query) == norm(a4.query) + """, { "$project": { "name": 1, "address": 1 } }""")
    assert(norm(q6) == norm(a5.query) + """, { "$project": { "_id": 0 } }, { "$limit": 10 }""")
  }

  test("MongoDB — operation 6 equals the paper's Fig. 4 aggregation pipeline") {
    val (_, _, _, _, _, q6) = chain(Languages.mongo)
    // Fig. 4 writes the literal as "en"; the rules wrap every string literal
    // in $literal, which MongoDB evaluates to the same "en"
    val paper = norm(
      """{"$match":{}},
        |{"$match":{"$expr":{"$eq":["$lang",{"$literal":"en"}]}}},
        |{"$project":{"name": 1, "address": 1}},
        |{"$project":{"_id": 0}},
        |{"$limit":10}""".stripMargin)
    // compare parsed JSON, so spacing does not matter
    def canonJson(s: String) = repro.util.Json.parse(s"[ $s ]")
    assert(canonJson(q6) == canonJson(paper))
  }

  test("Cypher — operations 1-6 match Table I") {
    val (a1, a2, a3, a4, a5, q6) = chain(Languages.cypher)
    assert(norm(a1.query) == "MATCH(t: Users)")
    // paper uses backticked aliases in Table I and quoted ones in its
    // appendix; we use single quotes throughout.
    assert(norm(a2.query) == "MATCH(t: Users) WITH t{'lang': t.lang}")
    assert(norm(a3.query) ==
      """MATCH(t: Users) WITH t{'lang': t.lang} WITH t{'is_eq': t.lang = "en"}""")
    assert(norm(a4.query) == """MATCH(t: Users) WITH t WHERE t.lang = "en"""")
    assert(norm(a5.query) == norm(a4.query) + " WITH t{'name': t.name, 'address': t.address}")
    assert(norm(q6) == norm(a5.query) + " RETURN t LIMIT 10")
  }

  test("operation 4 derives from operation 1, not operation 3 (Fig. 2 footnote)") {
    val lang = Languages.sqlpp
    val af1  = frame(lang)
    val af4  = af1.filter(col("lang") === "en")
    assert(af4.query.contains(af1.query))
    assert(!af4.query.contains("SELECT VALUE t.lang ="))
  }

  test("transformations never touch the connector (lazy evaluation)") {
    // NullConnector throws on any execution attempt; building the whole
    // Fig. 2 chain must not execute anything.
    Languages.all.values.foreach { lang => chain(lang); () }
  }

  test("each operation's query embeds the previous operation's query verbatim") {
    for (lang <- Seq(Languages.sqlpp, Languages.sql, Languages.mongo, Languages.cypher)) {
      val (a1, a2, a3, a4, a5, q6) = chain(lang)
      assert(a2.query.contains(a1.query), lang.name)
      assert(a3.query.contains(a2.query), lang.name)
      assert(a4.query.contains(a1.query), lang.name)
      assert(a5.query.contains(a4.query), lang.name)
      assert(q6.contains(a5.query), lang.name)
    }
  }
}
