package repro.connector

import repro.{Oracle, SparkSpec}
import repro.core.{LocalResult, PolyFrame}
import repro.wisconsin.WisconsinData

/** Connector contract: initialize / preProcess / execute / postProcess,
  * plus backend-specific metadata behaviour.
  */
class ConnectorSpec extends SparkSpec {

  private lazy val data = WisconsinData.generate(spark, 500).cache()

  test("SparkSqlConnector registers temp views and executes SQL") {
    val c = new SparkSqlConnector(spark)
    c.initialize("Bench", "conn_t1", data)
    val r = c.execute("SELECT COUNT(*) AS count FROM conn_t1", "conn_t1")
    assert(r.scalarLong == 500L)
  }

  test("DuckDbConnector creates namespace schemas and loads typed tables") {
    val c = new DuckDbConnector()
    try {
      c.initialize("Ns1", "t1", data)
      assert(c.execute("SELECT COUNT(*) AS c FROM Ns1.t1", "t1").scalarLong == 500L)
      // typed, not varchar: numeric aggregation works without casts
      assert(c.execute("SELECT MAX(unique1) AS m FROM Ns1.t1", "t1").scalarLong == 499L)
      // nulls survive the load
      assert(c.execute("SELECT COUNT(*) AS c FROM Ns1.t1 WHERE tenPercent IS NULL", "t1").scalarLong == 50L)
    } finally c.close()
  }

  test("DuckDbConnector loads an empty collection as an empty typed table") {
    val c = new DuckDbConnector()
    try {
      c.initialize("Ns2", "empty", data.limit(0))
      assert(c.execute("SELECT COUNT(*) AS c, MAX(unique1) AS m FROM Ns2.empty", "empty").rows == Seq(Seq(0L, null)))
    } finally c.close()
  }

  test("DuckDbConnector honors the threads setting") {
    val c = new DuckDbConnector(threads = 2)
    try {
      val r = c.execute("SELECT current_setting('threads') AS t", "x")
      assert(r.scalar.toString == "2")
    } finally c.close()
  }

  test("MongoConnector preProcess wraps stages into a pipeline array") {
    val c = new MongoConnector(spark)
    assert(c.preProcess("""{ "$match": {} }, { "$limit": 5 }""", "t")
      == """[ { "$match": {} }, { "$limit": 5 } ]""")
  }

  test("MongoConnector executes a wrapped pipeline") {
    val c = new MongoConnector(spark)
    c.initialize("Bench", "m1", data)
    val r = c.run("""{ "$match": {} }, { "$count": "count" }""", "m1")
    assert(r.scalarLong == 500L)
  }

  test("CypherConnector maintains a count metadata store (Neo4j fast path)") {
    val c = new CypherConnector(spark)
    c.initialize("Bench", "cy1", data)
    assert(c.countMetadata("cy1").contains(500L))
    assert(c.countMetadata("nope").isEmpty)
  }

  test("count() uses metadata only for untransformed base frames") {
    val c = new CypherConnector(spark)
    c.initialize("Bench", "cy2", data)
    val base = PolyFrame(c, "Bench", "cy2", WisconsinData.columns)
    assert(base.isBase)
    assert(base.count() == 500L)
    val filtered = base.filter(repro.core.dsl.col("ten") === 4)
    assert(!filtered.isBase)
    assert(filtered.count() == 50L) // must run the real query, not metadata
  }

  test("MongoConnector exposes no metadata count (pipeline limitation, per paper)") {
    val c = new MongoConnector(spark)
    c.initialize("Bench", "m2", data)
    assert(c.countMetadata("m2").isEmpty)
  }

  test("SparkSqlConnector returns a group-by result as a LocalResult") {
    val c = new SparkSqlConnector(spark)
    c.initialize("Bench", "conn_t2", data)
    val r = c.execute("SELECT twenty, COUNT(*) AS n FROM conn_t2 GROUP BY twenty", "conn_t2")
    assert(r.columns == Seq("twenty", "n"))
    assert(r.size == 20)
    assert(r.rows.map(_.head).toSet == (0L until 20L).toSet)
    assert(r.rows.forall(_(1) == 25L))
  }

  test("every connector loads empty strings, nulls, commas, quotes and newlines unchanged") {
    import spark.implicits._
    val tricky = Seq[(Long, String)](
      (1L, ""), (2L, null), (3L, "a,b"), (4L, "say \"hi\""), (5L, "line1\nline2"), (6L, "plain"))
      .toDF("k", "s")
    val duck = new DuckDbConnector()
    try {
      val conns = Seq(new SparkSqlConnector(spark), duck, new MongoConnector(spark), new CypherConnector(spark))
      val expected = LocalResult.fromDF(tricky).canonicalRows
      conns.foreach { c =>
        c.initialize("Rt", "tricky", tricky)
        val pf = PolyFrame(c, "Rt", "tricky", Seq("k", "s"))
        assert(pf.filter(repro.core.dsl.col("s").isna).count() == 1L, c.name)
        assert(pf.collectAll().canonicalRows == expected, c.name)
      }
    } finally duck.close()
  }

  test("every connector filters on a string literal that contains a newline") {
    import spark.implicits._
    val lines = Seq[(Long, String)]((1L, "line1\nline2"), (2L, "line1"), (3L, null)).toDF("k", "s")
    val duck = new DuckDbConnector()
    try {
      Seq(new SparkSqlConnector(spark), duck, new MongoConnector(spark), new CypherConnector(spark)).foreach { c =>
        c.initialize("Nl", "lines", lines)
        val pf = PolyFrame(c, "Nl", "lines", Seq("k", "s"))
        assert(pf.filter(repro.core.dsl.col("s") === "line1\nline2").count() == 1L, c.name)
      }
    } finally duck.close()
  }

  test("every connector filters on string literals with quotes and backslashes, equal to DuckDB") {
    import spark.implicits._
    val values = Seq("it's", "a\\b", "say \"hi\"", "x' OR '1'='1")
    val quoted = (values ++ Seq("its", "ab", "a\b", "say hi", "x")).zipWithIndex
      .map { case (s, k) => (k.toLong, s) }.toDF("k", "s")
    val duck = new DuckDbConnector()
    try {
      Seq(new SparkSqlConnector(spark), duck, new MongoConnector(spark), new CypherConnector(spark)).foreach { c =>
        c.initialize("Qt", "quoted", quoted)
        val pf = PolyFrame(c, "Qt", "quoted", Seq("k", "s"))
        values.foreach { v =>
          withClue(s"${c.name}, $v: ") {
            val got = pf.filter(repro.core.dsl.col("s") === v).select("k").collectAll()
            assert(got.size == 1)
            // standard SQL escapes only the quote, by doubling it
            Oracle.assertEquivalent(got, s"SELECT k FROM quoted WHERE s = '${v.replace("'", "''")}'",
              "quoted" -> quoted)
          }
        }
      }
    } finally duck.close()
  }

  test("MongoConnector raises MongoError when the shipped text is not a JSON array") {
    val c = new MongoConnector(spark)
    c.initialize("Bench", "m3", data)
    intercept[repro.mongo.MiniMongo.MongoError](c.execute("""{ "$match": {} }""", "m3"))
  }

  test("DuckDbConnector loads a date column as DATE, nulls included, equal to Spark") {
    import spark.implicits._
    val dated = Seq[(Long, String)]((1L, "2021-01-31"), (2L, null), (3L, "1999-12-31"), (4L, "2021-02-01"))
      .toDF("k", "s").selectExpr("k", "CAST(s AS DATE) AS d")
    val duck = new DuckDbConnector()
    try {
      duck.initialize("Dt", "dated", dated)
      assert(duck.execute("SELECT DISTINCT typeof(d) AS t FROM Dt.dated", "dated").scalar == "DATE")
      val sparkConn = new SparkSqlConnector(spark)
      sparkConn.initialize("Dt", "dated", dated)
      val Seq(onDuck, onSpark) =
        Seq(duck, sparkConn).map(c => PolyFrame(c, "Dt", "dated", Seq("k", "d")).collectAll())
      assert(onDuck.canonicalRows == onSpark.canonicalRows)
      val d = onDuck.columns.indexOf("d")
      assert(onDuck.rows.map(r => Option(r(d)).map(_.toString)).toSet ==
        Set(Some("2021-01-31"), None, Some("1999-12-31"), Some("2021-02-01")))
    } finally duck.close()
  }
}
