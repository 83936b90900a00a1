package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.dsl._
import repro.core.languages.Languages
import TestSupport.norm

/** Text-level formation of the 13 benchmark expressions (Table III /
  * Appendix E-H shapes) without execution. Semantic correctness of these
  * queries is separately verified by the integration suite, which runs
  * them on every backend and diffs against the DuckDB oracle.
  */
class QueryFormationSpec extends AnyFunSuite {

  private def base(lang: LanguageConfig) =
    PolyFrame(new NullConnector(lang), "Bench", "data",
      repro.wisconsin.WisconsinData.columns)

  test("expr 1 (count) — SQL++ matches Appendix E shape") {
    val lang = Languages.sqlpp
    val q = lang.sub("QUERIES", "q_count_all", "subquery" -> base(lang).query)
    assert(norm(q) == "SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM Bench.data t) t")
  }

  test("expr 2 (project + head) — SQL matches Appendix F shape") {
    val lang = Languages.sql
    val pf = base(lang).select("two", "four")
    val q  = lang.sub("LIMIT", "limit", "subquery" -> pf.query, "num" -> "5")
    assert(norm(q) ==
      """SELECT t."two", t."four" FROM (SELECT * FROM Bench.data t) t LIMIT 5""")
  }

  test("expr 3 (filter & count) — nested filter shape") {
    val lang = Languages.sqlpp
    val pf = base(lang).filter(col("ten") === 4 && col("twentyPercent") === 4 && col("two") === 0)
    val q = lang.sub("QUERIES", "q_count_all", "subquery" -> pf.query)
    assert(norm(q) == ("SELECT VALUE COUNT(*) FROM (SELECT VALUE t FROM " +
      "(SELECT VALUE t FROM Bench.data t) t " +
      "WHERE t.ten = 4 AND t.twentyPercent = 4 AND t.two = 0) t"))
  }

  test("expr 4 (group by count) — SQL++/SQL/Mongo/Cypher shapes") {
    val sqlppQ = base(Languages.sqlpp).groupBy("oddOnePercent").agg("count").query
    assert(norm(sqlppQ) == ("SELECT t.oddOnePercent, COUNT(t.oddOnePercent) AS count_oddOnePercent " +
      "FROM (SELECT VALUE t FROM Bench.data t) t GROUP BY t.oddOnePercent"))

    val mongoQ = base(Languages.mongo).groupBy("oddOnePercent").agg("count").query
    assert(norm(mongoQ).contains(""""$group": { "_id": { "oddOnePercent": "$oddOnePercent" }"""))
    assert(norm(mongoQ).contains(""""$addFields": { "oddOnePercent": "$_id.oddOnePercent" }"""))
    assert(norm(mongoQ).endsWith("""{ "$project": { "_id": 0 } }"""))

    val cypherQ = base(Languages.cypher).groupBy("oddOnePercent").agg("count").query
    assert(norm(cypherQ) == ("MATCH(t: data) WITH { 'oddOnePercent': t.oddOnePercent, " +
      "'count_oddOnePercent': count(t.oddOnePercent) } AS t"))
  }

  test("expr 5 (map upper) — SQL matches Appendix F shape") {
    val lang = Languages.sql
    val pf = base(lang)("stringu1").map("upper")
    val q  = lang.sub("LIMIT", "limit", "subquery" -> pf.query, "num" -> "5")
    assert(norm(q) == ("""SELECT upper(t."stringu1") AS "stringu1" FROM """ +
      """(SELECT t."stringu1" FROM (SELECT * FROM Bench.data t) t) t LIMIT 5"""))
  }

  test("expr 6/7 (max/min) — Mongo matches Appendix H shape") {
    val lang = Languages.mongo
    val pf = base(lang)("unique1")
    val q = lang.sub("QUERIES", "q_agg_value", "subquery" -> pf.query,
      "aggs" -> lang.sub("ATTRIBUTES", "agg_alias", "alias" -> "max_unique1",
        "agg" -> lang.sub("FUNCTIONS", "max", "attribute" -> "unique1")))
    assert(norm(q) == norm(
      """{ "$match": {} },
        |{ "$project": { "unique1": 1 } },
        |{ "$group": { "_id": {}, "max_unique1": { "$max": "$unique1" } } },
        |{ "$project": { "_id": 0 } }""".stripMargin))
  }

  test("expr 8 (group by & max) — Cypher matches Appendix G shape") {
    val q = base(Languages.cypher).groupBy("twenty").agg("max", "four").query
    assert(norm(q) ==
      "MATCH(t: data) WITH { 'twenty': t.twenty, 'max_four': max(t.four) } AS t")
  }

  test("expr 9 (sort desc + head) — shapes") {
    val sqlQ = base(Languages.sql).sortValues("unique1", ascending = false).query
    assert(norm(sqlQ) ==
      """SELECT * FROM (SELECT * FROM Bench.data t) t ORDER BY t."unique1" DESC""")
    val mongoQ = base(Languages.mongo).sortValues("unique1", ascending = false).query
    assert(norm(mongoQ) == norm("""{ "$match": {} }, { "$sort": { "unique1": -1 } }"""))
    val cypherQ = base(Languages.cypher).sortValues("unique1", ascending = false).query
    assert(norm(cypherQ) == "MATCH(t: data) WITH t ORDER BY t.unique1 DESC")
  }

  test("expr 9 ascending variant uses the asc rule") {
    val mongoQ = base(Languages.mongo).sortValues("unique1").query
    assert(norm(mongoQ) == norm("""{ "$match": {} }, { "$sort": { "unique1": 1 } }"""))
  }

  // ---------------------------------------------------- pending sort

  private val sqlBase = "SELECT * FROM Bench.data t"
  private def sqlSorted(sub: String, key: String) = s"""SELECT * FROM ($sub) t ORDER BY t."$key""""

  test("a head after sort-filter-sort-filter ships one ORDER BY, on the last key, under the LIMIT") {
    def chain(lang: LanguageConfig) = base(lang)
      .sortValues("unique1").filter(col("ten") === 4)
      .sortValues("unique2", ascending = false).filter(col("two") === 0)
      .headQuery(5)
    val sqlQ = norm(chain(Languages.sql))
    assert(sqlQ == sqlSorted(
      s"""SELECT t.* FROM ($sqlBase) t WHERE t."ten" = 4 AND t."two" = 0""",
      "unique2") + " DESC LIMIT 5")
    assert("ORDER BY".r.findAllMatchIn(sqlQ).size == 1)
    val mongoQ = norm(chain(Languages.mongo))
    assert("\"\\$sort\"".r.findAllMatchIn(mongoQ).size == 1)
    assert(mongoQ.endsWith(
      """{ "$sort": { "unique2": -1 } }, { "$project": { "_id": 0 } }, { "$limit": 5 }"""))
  }

  test("count, scalar aggregates and group-bys after a sort ship no sort") {
    Seq(Languages.sql -> "ORDER BY", Languages.mongo -> "$sort").foreach { case (lang, sort) =>
      val sorted = base(lang).sortValues("two").filter(col("ten") === 4).sortValues("unique1")
      val texts = Seq(sorted.countQuery, sorted("unique1").aggValueQuery("max"),
        sorted.groupBy("two").agg("count").query, sorted.groupBy("two").agg("count").collectQuery)
      texts.foreach(q => assert(!q.contains(sort), s"${lang.name}: $q"))
    }
    assert(norm(base(Languages.sql).sortValues("unique1").countQuery) ==
      s"""SELECT COUNT(*) AS "count" FROM ($sqlBase) t""")
  }

  test("a select that drops the sort key, a map and a join keep the ORDER BY inside, as before") {
    val sql = base(Languages.sql).sortValues("unique1")
    assert(norm(sql.select("two").query) ==
      s"""SELECT t."two" FROM (${sqlSorted(sqlBase, "unique1")}) t""")
    val upper = base(Languages.sql).sortValues("stringu1").select("stringu1").map("upper")
    assert(norm(upper.query) == ("""SELECT upper(t."stringu1") AS "stringu1" FROM (""" +
      sqlSorted(s"""SELECT t."stringu1" FROM ($sqlBase) t""", "stringu1") + ") t"))
    val joined = sql.join(base(Languages.sql).sortValues("unique2"), "unique1", "unique1")
    assert(norm(joined.query) == (s"""SELECT l.*, r.* FROM (${sqlSorted(sqlBase, "unique1")}) l """ +
      s"""INNER JOIN (${sqlSorted(sqlBase, "unique2")}) r ON l."unique1" = r."unique1""""))
    val mongo = norm(base(Languages.mongo).sortValues("unique1").select("two").query)
    assert(mongo == norm("""{ "$match": {} }, { "$sort": { "unique1": 1 } }, { "$project": { "two": 1 } }"""))
  }

  test("a select that keeps the sort key carries the sort to the outermost query") {
    val sql = base(Languages.sql).sortValues("unique1").select("unique1", "two")
    assert(norm(sql.query) == sqlSorted(s"""SELECT t."unique1", t."two" FROM ($sqlBase) t""", "unique1"))
    val mongo = base(Languages.mongo).sortValues("unique1").select("unique1", "two")
    assert(norm(mongo.query) ==
      norm("""{ "$match": {} }, { "$project": { "unique1": 1, "two": 1 } }, { "$sort": { "unique1": 1 } }"""))
  }

  test("a second sortValues replaces the first; sortValues(...).query is the q_sort rule on the frame") {
    val sql = base(Languages.sql).sortValues("unique1").sortValues("unique2", ascending = false)
    assert(norm(sql.query) == sqlSorted(sqlBase, "unique2") + " DESC")
    assert(norm(base(Languages.sql).sortValues("unique1").query) == sqlSorted(sqlBase, "unique1"))
    val mongo = base(Languages.mongo).sortValues("unique1").sortValues("unique2", ascending = false)
    assert(norm(mongo.query) == norm("""{ "$match": {} }, { "$sort": { "unique2": -1 } }"""))
  }

  // ------------------------------------- pending filters and projection

  test("filter-select-filter-sort-filter ships one q_filter with the three conditions, one q_project and one sort under the LIMIT") {
    val (c1, c2, c3) = (col("ten") === 4, col("two") === 0, col("unique1") > 10)
    def chain(lang: LanguageConfig) = base(lang).filter(c1).select("unique1", "two").filter(c2)
      .sortValues("unique1").filter(c3).headQuery(5)
    Seq(Languages.sql, Languages.sparkSql, Languages.sqlpp, Languages.mongo, Languages.cypher).foreach { lang =>
      def t(e: PFExpr) = LanguageConfig.translate(e, lang)
      def and(l: String, r: String) = lang.sub("LOGICAL STATEMENTS", "and", "left" -> l, "right" -> r)
      val filtered = lang.sub("QUERIES", "q_filter",
        "subquery" -> base(lang).query, "condition" -> and(t(c1), and(t(c2), t(c3))))
      val items = Seq("unique1", "two").map(a => lang.sub("ATTRIBUTES", "project_attribute", "attribute" -> a))
      val projected = lang.sub("QUERIES", "q_project", "subquery" -> filtered, "attrs" -> lang.joinFragments(items))
      val sorted = lang.sub("QUERIES", "q_sort", "subquery" -> projected,
        "sort_attrs" -> lang.sub("ATTRIBUTES", "sort_asc_attr", "attribute" -> "unique1"))
      assert(chain(lang) == lang.sub("LIMIT", "limit", "subquery" -> sorted, "num" -> "5"), lang.name)
    }
    assert(norm(chain(Languages.sql)) == sqlSorted(
      s"""SELECT t."unique1", t."two" FROM (SELECT t.* FROM ($sqlBase) t """ +
        """WHERE t."ten" = 4 AND t."two" = 0 AND t."unique1" > 10) t""", "unique1") + " LIMIT 5")
    assert(norm(chain(Languages.mongo)) == norm(
      """{ "$match": {} },
        |{ "$match": { "$expr": { "$and": [ { "$eq": [ "$ten", 4 ] }, { "$and": [ { "$eq": [ "$two", 0 ] }, { "$gt": [ "$unique1", 10 ] } ] } ] } } },
        |{ "$project": { "unique1": 1, "two": 1 } },
        |{ "$sort": { "unique1": 1 } },
        |{ "$project": { "_id": 0 } },
        |{ "$limit": 5 }""".stripMargin))
  }

  test("a filter on a dropped attribute and a select that widens the projection nest, as the rules compose them") {
    val sql = base(Languages.sql).select("unique1", "two")
    assert(norm(sql.filter(col("ten") === 1).query) ==
      s"""SELECT t.* FROM (SELECT t."unique1", t."two" FROM ($sqlBase) t) t WHERE t."ten" = 1""")
    assert(norm(sql.select("unique1", "ten").query) ==
      s"""SELECT t."unique1", t."ten" FROM (SELECT t."unique1", t."two" FROM ($sqlBase) t) t""")
    assert(norm(sql.select("two").query) == s"""SELECT t."two" FROM ($sqlBase) t""")
  }

  test("a run of n filters nests about 2 log2(n) JSON levels in Mongo's $and, not n") {
    val q = (0 until 512).foldLeft(base(Languages.mongo))((f, i) => f.filter(col("unique1") =!= i)).countQuery
    val depth = q.scanLeft(0)((d, c) => if (c == '{' || c == '[') d + 1 else if (c == '}' || c == ']') d - 1 else d).max
    assert(depth <= 2 * 9 + 8, s"JSON depth $depth")
  }

  test("expr 11 (range selection) — Spark SQL shape") {
    val lang = Languages.sparkSql
    val pf = base(lang).filter(col("onePercent") >= 40 && col("onePercent") <= 60)
    val q = lang.sub("QUERIES", "q_count_all", "subquery" -> pf.query)
    assert(norm(q) == ("SELECT COUNT(*) AS count FROM (SELECT t.* FROM " +
      "(SELECT * FROM data t) t WHERE t.onePercent >= 40 AND t.onePercent <= 60) t"))
  }

  test("expr 12 (join & count) — SQL join embeds both subqueries") {
    val lang = Languages.sql
    val l = base(lang); val r = PolyFrame(new NullConnector(lang), "Bench", "data2",
      repro.wisconsin.WisconsinData.columns)
    val j = l.join(r, "unique1", "unique1")
    assert(norm(j.query) == ("""SELECT l.*, r.* FROM (SELECT * FROM Bench.data t) l """ +
      """INNER JOIN (SELECT * FROM Bench.data2 t) r ON l."unique1" = r."unique1""""))
  }

  test("expr 12 — Mongo join uses $lookup/let/pipeline + $unwind (Appendix H)") {
    val lang = Languages.mongo
    val l = base(lang); val r = PolyFrame(new NullConnector(lang), "Bench", "data2",
      repro.wisconsin.WisconsinData.columns)
    val q = norm(l.join(r, "unique1", "unique1").query)
    assert(q.contains(""""$lookup": { "from": "data2", "as": "data2", "let": { "left": "$unique1" }"""))
    assert(q.contains(""""$eq": [ "$unique1", "$$left" ]"""))
    assert(q.contains(""""$unwind": { "path": "$data2", "preserveNullAndEmptyArrays": false }"""))
  }

  test("expr 12 — Cypher join adds a second MATCH with a WHERE equality") {
    val lang = Languages.cypher
    val l = base(lang); val r = PolyFrame(new NullConnector(lang), "Bench", "wisconsin2",
      repro.wisconsin.WisconsinData.columns)
    val q = norm(l.join(r, "unique1", "unique1").query)
    assert(q == "MATCH(t: data) MATCH(r: wisconsin2) WHERE t.unique1 = r.unique1 WITH t, r")
  }

  test("expr 13 (count missing) — per-language null idioms") {
    def q13(lang: LanguageConfig) = {
      val pf = base(lang).filter(col("tenPercent").isna)
      lang.sub("QUERIES", "q_count_all", "subquery" -> pf.query)
    }
    assert(norm(q13(Languages.sqlpp)).contains("WHERE t.tenPercent IS UNKNOWN"))
    assert(norm(q13(Languages.sql)).contains("""WHERE t."tenPercent" IS NULL"""))
    assert(norm(q13(Languages.mongo)).contains(""""$lt": [ "$tenPercent", null ]"""))
    assert(norm(q13(Languages.cypher)).contains("WHERE t.tenPercent IS NULL"))
  }

  test("schema tracking follows projections and group-bys") {
    val pf = base(Languages.sparkSql)
    assert(pf.select("two", "four").columns == Seq("two", "four"))
    assert(pf("unique1").seriesName.contains("unique1"))
    assert(pf.groupBy("twenty").agg("max", "four").columns == Seq("twenty", "max_four"))
    assert(pf.filter(col("ten") === 4).columns == pf.columns)
  }

  test("a filtered or sorted series is still a series") {
    val sql = base(Languages.sql)
    val filtered = sql("unique1").filter(col("unique1") > 1)
    assert(filtered.seriesName.contains("unique1"))
    assert(norm(filtered.aggValueQuery("max")) == ("""SELECT MAX(t."unique1") AS "max_unique1" FROM """ +
      """(SELECT t."unique1" FROM (SELECT t.* FROM (SELECT * FROM Bench.data t) t WHERE t."unique1" > 1) t) t"""))
    val mapped = sql("stringu1").sortValues("stringu1").map("upper")
    assert(norm(mapped.query) == ("""SELECT upper(t."stringu1") AS "stringu1" FROM """ +
      """(SELECT * FROM (SELECT t."stringu1" FROM (SELECT * FROM Bench.data t) t) t ORDER BY t."stringu1") t"""))
  }

  test("series-only operations reject non-series frames") {
    val pf = base(Languages.sparkSql)
    intercept[IllegalStateException](pf.map("upper"))
    intercept[IllegalStateException](pf.aggValue("max"))
  }
}
