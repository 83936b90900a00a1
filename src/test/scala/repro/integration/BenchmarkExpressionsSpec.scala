package repro.integration

import repro.{Oracle, SparkSpec}
import repro.connector._
import repro.core.dsl._
import repro.core.{DatabaseConnector, LocalResult, PolyFrame}
import repro.eager.{EagerFrame, MemoryBudget}
import repro.wisconsin.WisconsinData

/** End-to-end correctness of the 13 benchmark expressions (Table III) on
  * every executable PolyFrame backend — SparkSQL, DuckDB, MiniMongo,
  * MiniCypher — over identical Wisconsin input.
  *
  * Deterministic results are (a) checked against analytically-known
  * values from the Table II derivations, (b) cross-compared between all
  * backends, and (c) for the Spark backend, diffed against hand-written
  * reference SQL on the DuckDB oracle. head()-based expressions (2, 5,
  * 10) return an arbitrary subset, so they are checked by properties.
  */
class BenchmarkExpressionsSpec extends SparkSpec {

  private val N = 2000L

  private lazy val data = WisconsinData.generate(spark, N).cache()

  private lazy val sparkConn  = { val c = new SparkSqlConnector(spark); init(c); c }
  private lazy val duckConn   = { val c = new DuckDbConnector();        init(c); c }
  private lazy val mongoConn  = { val c = new MongoConnector(spark);    init(c); c }
  private lazy val cypherConn = { val c = new CypherConnector(spark);   init(c); c }
  private def init(c: DatabaseConnector): Unit =
    Seq("wisconsin", "wisconsin2").foreach(t => c.initialize("Bench", t, data))

  private lazy val backends: Seq[DatabaseConnector] =
    Seq(sparkConn, duckConn, mongoConn, cypherConn)

  private def frames(c: DatabaseConnector): (PolyFrame, PolyFrame) =
    (PolyFrame(c, "Bench", "wisconsin",  WisconsinData.columns),
     PolyFrame(c, "Bench", "wisconsin2", WisconsinData.columns))

  /** Run a query on the Spark backend, as an action ships it. */
  private def onSpark(query: String): LocalResult = sparkConn.run(query, "wisconsin")

  private def forAllBackends[A](f: (DatabaseConnector, PolyFrame, PolyFrame) => A): Seq[A] =
    backends.map { c => val (df, df2) = frames(c); f(c, df, df2) }

  // ------------------------------------------------------------ expression 1

  test("expr 1 (len) — every backend returns the exact count") {
    forAllBackends { (c, df, _) => assert(df.count() == N, c.name) }
  }

  test("expr 1 oracle — Spark count query matches DuckDB") {
    val (df, _) = frames(sparkConn)
    Oracle.assertEquivalent(
      onSpark(df.countQuery),
      "SELECT COUNT(*) AS count FROM wisconsin",
      "wisconsin" -> data)
  }

  // ------------------------------------------------------------ expression 2

  test("expr 2 (project+head) — 5 rows, right columns, valid domains") {
    forAllBackends { (c, df, _) =>
      val r = df.select("two", "four").head(5)
      assert(r.size == 5, c.name)
      assert(r.columns.map(_.toLowerCase) == Seq("two", "four"), c.name)
      r.rows.foreach { row =>
        assert(Set(0L, 1L).contains(LocalResult.normalize(row(0)).asInstanceOf[Long]), c.name)
        assert((0L to 3L).contains(LocalResult.normalize(row(1)).asInstanceOf[Long]), c.name)
      }
    }
  }

  // ------------------------------------------------------------ expression 3

  test("expr 3 (filter & count) — N/10 on every backend") {
    forAllBackends { (c, df, _) =>
      val n = df.filter(col("ten") === 4 && col("twentyPercent") === 4 && col("two") === 0).count()
      assert(n == N / 10, c.name)
    }
  }

  test("expr 3 oracle — Spark filter-count matches DuckDB") {
    val (df, _) = frames(sparkConn)
    val pf = df.filter(col("ten") === 4 && col("twentyPercent") === 4 && col("two") === 0)
    Oracle.assertEquivalent(
      onSpark(pf.countQuery),
      "SELECT COUNT(*) AS count FROM wisconsin WHERE ten = 4 AND twentyPercent = 4 AND two = 0",
      "wisconsin" -> data)
  }

  // ------------------------------------------------------------ expression 4

  test("expr 4 (group by count) — identical group counts on every backend") {
    val results = forAllBackends { (c, df, _) =>
      val r = df.groupBy("oddOnePercent").agg("count").collectAll()
      assert(r.size == 100, c.name)
      r.canonicalRows
    }
    assert(results.distinct.size == 1, "backends disagree on expr 4")
  }

  test("expr 4 oracle — Spark group-by matches DuckDB") {
    val (df, _) = frames(sparkConn)
    val pf = df.groupBy("oddOnePercent").agg("count")
    Oracle.assertEquivalent(
      onSpark(pf.collectQuery),
      "SELECT oddOnePercent, COUNT(oddOnePercent) AS count_oddOnePercent " +
        "FROM wisconsin GROUP BY oddOnePercent",
      "wisconsin" -> data)
  }

  // ------------------------------------------------------------ expression 5

  test("expr 5 (map upper + head) — 5 uppercased values everywhere") {
    forAllBackends { (c, df, _) =>
      val r = df("stringu1").map("upper").head(5)
      assert(r.size == 5, c.name)
      r.rows.foreach { row =>
        val s = row.head.toString
        assert(s == s.toUpperCase && s.length == 52, c.name)
      }
    }
  }

  // -------------------------------------------------------- expressions 6, 7

  test("expr 6 (max) — N-1 on every backend") {
    forAllBackends { (c, df, _) => assert(df("unique1").max() == (N - 1).toDouble, c.name) }
  }

  test("expr 7 (min) — 0 on every backend") {
    forAllBackends { (c, df, _) => assert(df("unique1").min() == 0.0, c.name) }
  }

  test("expr 6/7 oracle — Spark agg queries match DuckDB") {
    val (df, _) = frames(sparkConn)
    Oracle.assertEquivalent(
      onSpark(df("unique1").aggValueQuery("max")),
      "SELECT MAX(unique1) AS max_unique1 FROM wisconsin",
      "wisconsin" -> data)
    Oracle.assertEquivalent(
      onSpark(df("unique1").aggValueQuery("min")),
      "SELECT MIN(unique1) AS min_unique1 FROM wisconsin",
      "wisconsin" -> data)
  }

  // ------------------------------------------------------------ expression 8

  test("expr 8 (group by & max) — identical on every backend, max(four)=twenty%4") {
    val results = forAllBackends { (c, df, _) =>
      val r = df.groupBy("twenty").agg("max", "four").collectAll()
      assert(r.size == 20, c.name)
      val lower = r.columns.map(_.toLowerCase)
      val (ti, mi) = (lower.indexOf("twenty"), lower.indexOf("max_four"))
      r.rows.foreach { row =>
        val twenty = LocalResult.normalize(row(ti)).asInstanceOf[Long]
        val mx     = LocalResult.normalize(row(mi)).asInstanceOf[Long]
        assert(mx == twenty % 4, c.name)
      }
      r.canonicalRows
    }
    assert(results.distinct.size == 1, "backends disagree on expr 8")
  }

  test("expr 8 oracle — Spark group-by-max matches DuckDB") {
    val (df, _) = frames(sparkConn)
    val pf = df.groupBy("twenty").agg("max", "four")
    Oracle.assertEquivalent(
      onSpark(pf.collectQuery),
      "SELECT twenty, MAX(four) AS max_four FROM wisconsin GROUP BY twenty",
      "wisconsin" -> data)
  }

  // ------------------------------------------------------------ expression 9

  test("expr 9 (sort desc + head) — identical top-5 on every backend") {
    forAllBackends { (c, df, _) =>
      val r = df.sortValues("unique1", ascending = false).head(5)
      val i = r.columns.map(_.toLowerCase).indexOf("unique1")
      val got = r.rows.map(row => LocalResult.normalize(row(i)).asInstanceOf[Long])
      assert(got == Seq(N - 1, N - 2, N - 3, N - 4, N - 5), c.name)
    }
  }

  test("ascending sort puts missing values last on Spark and DuckDB (Pandas na_position='last')") {
    def sorted(s: Subject): Seq[Any] = keys(s.df.sortValues("tenPercent").head(N.toInt), "tenPercent")
    // tenPercent is missing where it would be 0
    val (present, missing) = sorted(eagerSubject).splitAt((N - N / 10).toInt)
    assert(present.take(3) == Seq(1L, 1L, 1L) && !present.contains(null) && missing.forall(_ == null))
    Seq(sparkConn, duckConn, cypherConn).foreach(c => assert(sorted(subject(c)) == present ++ missing, c.name))
    // Open cross-backend difference (DESIGN.md §5): MiniMongo still sorts
    // missing values first on an ascending sort.
    assert(sorted(subject(mongoConn)) == missing ++ present)
  }

  test("an ascending sort's head returns EagerFrame's keys on every backend") {
    headAgrees("unique1")(_.df.sortValues("unique1").head(5))
  }

  // ----------------------------------------------------------- expression 10

  test("expr 10 (selection + head) — 5 rows, all satisfying ten=4") {
    forAllBackends { (c, df, _) =>
      val r = df.filter(col("ten") === 4).head(5)
      assert(r.size == 5, c.name)
      val i = r.columns.map(_.toLowerCase).indexOf("ten")
      r.rows.foreach(row =>
        assert(LocalResult.normalize(row(i)) == 4L, c.name))
    }
  }

  // ----------------------------------------------------------- expression 11

  test("expr 11 (range selection & count) — 21% on every backend") {
    forAllBackends { (c, df, _) =>
      val n = df.filter(col("onePercent") >= 40 && col("onePercent") <= 60).count()
      assert(n == N * 21 / 100, c.name)
    }
  }

  test("expr 11 oracle — Spark range-count matches DuckDB") {
    val (df, _) = frames(sparkConn)
    val pf = df.filter(col("onePercent") >= 40 && col("onePercent") <= 60)
    Oracle.assertEquivalent(
      onSpark(pf.countQuery),
      "SELECT COUNT(*) AS count FROM wisconsin WHERE onePercent >= 40 AND onePercent <= 60",
      "wisconsin" -> data)
  }

  // ----------------------------------------------------------- expression 12

  test("expr 12 (join & count) — N on every backend (self-join on unique1)") {
    forAllBackends { (c, df, df2) =>
      assert(df.join(df2, "unique1", "unique1").count() == N, c.name)
    }
  }

  test("expr 12 oracle — Spark join-count matches DuckDB") {
    val (df, df2) = frames(sparkConn)
    val pf = df.join(df2, "unique1", "unique1")
    Oracle.assertEquivalent(
      onSpark(pf.countQuery),
      "SELECT COUNT(*) AS count FROM wisconsin l INNER JOIN wisconsin2 r " +
        "ON l.unique1 = r.unique1",
      "wisconsin" -> data, "wisconsin2" -> data)
  }

  // ----------------------------------------------------------- expression 13

  test("expr 13 (count missing) — N/10 on every backend") {
    forAllBackends { (c, df, _) =>
      assert(df.filter(col("tenPercent").isna).count() == N / 10, c.name)
    }
  }

  test("expr 13 oracle — Spark missing-count matches DuckDB") {
    val (df, _) = frames(sparkConn)
    val pf = df.filter(col("tenPercent").isna)
    Oracle.assertEquivalent(
      onSpark(pf.countQuery),
      "SELECT COUNT(*) AS count FROM wisconsin WHERE tenPercent IS NULL",
      "wisconsin" -> data)
  }

  // --------------------------------------------------- cross-cutting checks

  test("boolean-series projection (Table I op 3) evaluates on every backend") {
    forAllBackends { (c, df, _) =>
      val r = df("two").projectExpr(col("two") === 0).collectAll()
      assert(r.size == N, c.name)
      val trues = r.rows.count(row => LocalResult.normalize(row.head) match {
        case b: Boolean => b
        case l: Long    => l == 1L
        case other      => other.toString.toBoolean
      })
      assert(trues == N / 2, c.name)
    }
  }

  /** `df.filter(cond).select("unique1")` on every backend equals the DuckDB reference. */
  private def filterMatchesOracle(cond: repro.core.PFExpr, where: String): Unit =
    forAllBackends { (c, df, _) =>
      withClue(c.name) {
        Oracle.assertEquivalent(df.filter(cond).select("unique1").collectAll(),
          s"SELECT unique1 FROM wisconsin WHERE $where", "wisconsin" -> data)
      }
    }

  test("an OR inside an AND and a NOT of an AND keep their grouping on every backend") {
    filterMatchesOracle((col("two") === 1 || col("four") === 2) && col("ten") < 3,
      "(two = 1 OR four = 2) AND ten < 3")
    filterMatchesOracle(!(col("two") === 1 && col("ten") === 3), "NOT (two = 1 AND ten = 3)")
  }

  test("tenPercent != 3 keeps the missing rows on every backend, as EagerFrame does") {
    val want = agrees(_.df.filter(col("tenPercent") =!= 3).count())
    assert(want == N - N / 10) // 200 rows hold 3, and the 200 missing ones are kept
  }

  test("stringu1 >= 'AAAAB' orders strings as text on every backend, as EagerFrame does") {
    // stringu1 spells unique1 in base-26 letters, so "AAAAB..." starts at unique1 = 676
    val want = agrees(_.df.filter(col("stringu1") >= "AAAAB").select("unique1", "stringu1").collectAll().canonicalRows)
    assert(want.size == N - 676)
  }

  test("a NOT over a comparison keeps missing rows on every backend, as EagerFrame does") {
    // Pandas negates the False that a missing value compares to; the rules'
    // NOT is two-valued too, so NOT over SQL's unknown is true
    val want = agrees(_.df.filter(!(col("tenPercent") >= 3)).count())
    assert(want == 3 * N / 10)
  }

  test("x != v keeps rows where x is missing on every backend, as Pandas does") {
    filterMatchesOracle(col("tenPercent") =!= 4, "tenPercent IS DISTINCT FROM 4")
    forAllBackends { (c, df, _) =>
      // 1800 present values, 200 of them 4, plus the 200 missing ones
      assert(df.filter(col("tenPercent") =!= 4).count() == N - N / 10, c.name)
    }
  }

  test("x == None keeps no row and x != None every row on every backend, as Pandas does") {
    forAllBackends { (c, df, _) =>
      // tenPercent is missing on 10% of the rows
      assert(df.filter(col("tenPercent") === null).count() == 0L, c.name)
      assert(df.filter(col("tenPercent") =!= null).count() == N, c.name)
    }
  }

  test("a filtered series aggregates and a sorted series maps on DuckDB") {
    def program(s: Subject) = (s.df("unique1").filter(col("unique1") < 100).max(),
      keys(s.df("stringu1").sortValues("stringu1", ascending = false).map("upper").head(5), "stringu1"))
    val want = program(eagerSubject)
    assert(want._1 == 99.0)
    assert(program(subject(duckConn)) == want)
  }

  test("a string literal that starts with $ is a string, not a field path, on every backend") {
    forAllBackends { (c, df, _) =>
      assert(df.filter(col("stringu1") === "$stringu1").count() == 0L, c.name)
    }
  }

  test("nested expressions on MiniMongo equal DuckDB") {
    val (df, _) = frames(mongoConn)
    import repro.core.PFExpr.{Arith, Cmp, Func, Lit}
    Oracle.assertEquivalent(
      df.projectExpr(Func("upper", Func("lower", col("stringu1"))), "s").collectAll(),
      "SELECT upper(lower(stringu1)) AS s FROM wisconsin", "wisconsin" -> data)
    Oracle.assertEquivalent(
      df.projectExpr(Func("to_str", col("unique1")), "s").collectAll(),
      "SELECT CAST(unique1 AS VARCHAR) AS s FROM wisconsin", "wisconsin" -> data)
    Oracle.assertEquivalent(
      df.filter(Cmp("eq", Arith("add", col("ten"), Lit(1)), Lit(5))).select("unique1").collectAll(),
      "SELECT unique1 FROM wisconsin WHERE ten + 1 = 5", "wisconsin" -> data)
  }

  test("chained transformations compose across backends (filter→project→sort→head)") {
    forAllBackends { (c, df, _) =>
      val r = df.filter(col("ten") === 4)
        .select("unique1", "ten")
        .sortValues("unique1", ascending = false)
        .head(3)
      val i = r.columns.map(_.toLowerCase).indexOf("unique1")
      val got = r.rows.map(row => LocalResult.normalize(row(i)).asInstanceOf[Long])
      // largest unique1 ≡ 4 (mod 10) below N=2000 is 1994
      assert(got == Seq(1994L, 1984L, 1974L), c.name)
    }
  }

  // ------------------------------------------------ sorts wait for the action

  private def subject(c: DatabaseConnector): Subject = { val (df, df2) = frames(c); Subject(c.name, df, df2) }

  /** Pandas' answer: EagerFrame over the same rows, joined to itself as Table III does. */
  private lazy val eagerSubject = {
    val eager = EagerFrame(data.columns.toSeq, data.collect().map(_.toSeq.toArray[Any]), MemoryBudget.unlimited)
    Subject("EagerFrame", eager, eager)
  }

  /** `program` gives EagerFrame's result on every backend; returns that result. */
  private def agrees[A](program: Subject => A): A = {
    val want = program(eagerSubject)
    backends.foreach(c => assert(program(subject(c)) == want, c.name))
    want
  }

  /** The values of `attr` in row order. */
  private def keys(r: LocalResult, attr: String): Seq[Any] = {
    val i = r.columns.map(_.toLowerCase).indexOf(attr.toLowerCase)
    r.rows.map(row => LocalResult.normalize(row(i)))
  }

  /** A head chain gives EagerFrame's values of `attr`, in order, on every backend. */
  private def headAgrees(attr: String)(program: Subject => LocalResult): Unit =
    assert(agrees(s => keys(program(s), attr)).size == 5)

  private val tenIs4 = col("ten") === 4

  test("heads after sort→filter, sort→filter→sort→select, sort→select and sort→map agree with EagerFrame") {
    headAgrees("unique1")(_.df.sortValues("unique1", ascending = false).filter(tenIs4).head(5))
    headAgrees("unique2")(_.df.sortValues("unique1", ascending = false).filter(tenIs4)
      .sortValues("unique2", ascending = false).select("unique2", "ten").head(5))
    // the select drops the key, so the sort runs inside it
    headAgrees("unique2")(_.df.sortValues("unique1", ascending = false).select("unique2").head(5))
    headAgrees("stringu1")(_.df.sortValues("stringu1", ascending = false).select("stringu1").map("upper").head(5))
  }

  test("a count and a group-by after a sort agree with EagerFrame on every backend") {
    val (count, groups) = agrees { s =>
      val sorted = s.df.sortValues("unique1", ascending = false)
      (sorted.filter(tenIs4).count(), sorted.groupBy("twenty").agg("count").collectAll().canonicalRows)
    }
    assert(count == N / 10 && groups.size == 20)
  }

  test("DuckDB runs one sort for a head over a 3-sort chain and none for its count") {
    val (df, _) = frames(duckConn)
    val chain = df.sortValues("unique1").filter(col("ten") === 4)
      .sortValues("stringu1", ascending = false).filter(col("two") === 0).sortValues("unique2")
    def sortOperators(q: String): Int = {
      val plan = duckConn.execute(s"EXPLAIN $q", "wisconsin").rows.map(_.last.toString).mkString("\n")
      "ORDER_BY|TOP_N".r.findAllMatchIn(plan).size
    }
    assert(sortOperators(chain.headQuery(5)) == 1)
    assert(sortOperators(chain.countQuery) == 0)
  }
}
