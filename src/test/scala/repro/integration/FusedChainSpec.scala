package repro.integration

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.connector._
import repro.core.dsl._
import repro.core.{DatabaseConnector, LocalResult, NestedChain, PFExpr, PolyFrame}
import repro.wisconsin.WisconsinData

/** A run of filters, plain projections and sorts ships as one `q_filter`,
  * one `q_project` and one `q_sort`. These tests hold that fused text to
  * the text the rules compose one step at a time ([[NestedChain]]), hold
  * every backend to DuckDB on it, and check that a wrong program still
  * raises.
  */
class FusedChainSpec extends SparkSpec {

  private val N = 2000L

  private lazy val data = WisconsinData.generate(spark, N).cache()

  private lazy val sparkConn  = { val c = new SparkSqlConnector(spark); init(c); c }
  private lazy val duckConn   = { val c = new DuckDbConnector();        init(c); c }
  private lazy val mongoConn  = { val c = new MongoConnector(spark);    init(c); c }
  private lazy val cypherConn = { val c = new CypherConnector(spark);   init(c); c }
  private def init(c: DatabaseConnector): Unit = c.initialize("Bench", "wisconsin", data)

  private lazy val backends: Seq[DatabaseConnector] = Seq(sparkConn, duckConn, mongoConn, cypherConn)

  private def frame(c: DatabaseConnector) = PolyFrame(c, "Bench", "wisconsin", WisconsinData.columns)

  /** The values of `attr` in row order. */
  private def keys(r: LocalResult, attr: String): Seq[Any] = {
    val i = r.columns.map(_.toLowerCase).indexOf(attr.toLowerCase)
    assert(i >= 0, s"no column $attr in ${r.columns}")
    r.rows.map(row => LocalResult.normalize(row(i)))
  }

  private def columnSet(r: LocalResult): Set[String] = r.columns.map(_.toLowerCase).toSet

  // ------------------------------------------------------ errors still surface

  test("a filter on a dropped attribute and a select of a dropped attribute still raise on every backend") {
    backends.foreach { c =>
      val pair = frame(c).select("unique1", "two")
      withClue(c.name) {
        intercept[Exception](pair.filter(col("ten") === 1).count())
        intercept[Exception](pair.filter(col("ten") === 1).collectAll())
        intercept[Exception](pair.select("unique1", "ten").collectAll())
      }
    }
  }

  // ------------------------------------------------------ balanced conjunction

  test("a 200-filter chain counts the same on every backend as on DuckDB") {
    def chain(c: DatabaseConnector) =
      (0 until 200).foldLeft(frame(c))((f, i) => f.filter(col("unique1") =!= i * 7))
    val want = chain(duckConn).count()
    assert(want == N - 200)
    backends.foreach(c => assert(chain(c).count() == want, c.name))
  }

  // ------------------------------------------------------ a fixed 12-step chain

  private def twelveSteps(df: PolyFrame): PolyFrame = df
    .filter(col("tenPercent") =!= 3)
    .select("unique1", "unique2", "ten", "tenPercent", "stringu1", "string4", "onePercent")
    .filter(col("stringu1") =!= "it's a \"quote\" \\")
    .sortValues("unique2", ascending = false)
    .filter(col("onePercent") < 80 || col("ten") === 1)
    .select("unique1", "unique2", "tenPercent", "stringu1", "string4", "onePercent")
    .filter(!(col("string4") === "H"))
    .filter(col("tenPercent") =!= null)
    .sortValues("unique1")
    .filter(col("unique1") >= 100)
    .select("unique1", "tenPercent", "stringu1", "onePercent")
    .filter(col("tenPercent").isna || col("tenPercent") > 4)

  test("a fixed 12-step chain gives DuckDB's count, rows and head on every backend") {
    val duck = twelveSteps(frame(duckConn))
    val (count, all, head) = (duck.count(), duck.collectAll(), keys(duck.head(5), "unique1"))
    assert(count > 0 && count == all.size)
    assert(head == all.rows.map(r => LocalResult.normalize(r(all.columns.indexOf("unique1")))).sortBy {
      case l: Long => l; case other => fail(s"unique1 = $other")
    }.take(5))
    backends.foreach { c =>
      val pf = twelveSteps(frame(c))
      withClue(c.name) {
        assert(pf.count() == count)
        val got = pf.collectAll()
        assert(columnSet(got) == columnSet(all))
        assert(got.canonicalRows == all.canonicalRows)
        assert(keys(pf.head(5), "unique1") == head)
      }
    }
  }

  // ---------------------------------- differential: fused against rule-by-rule

  private sealed trait Step
  private final case class Filter(cond: PFExpr) extends Step
  private final case class Select(attrs: Seq[String]) extends Step
  private final case class Sort(attr: String, ascending: Boolean) extends Step

  private final case class Program(steps: List[Step], action: String) {
    def fused(df: PolyFrame): PolyFrame = steps.foldLeft(df) {
      case (f, Filter(c))    => f.filter(c)
      case (f, Select(as))   => f.select(as: _*)
      case (f, Sort(a, asc)) => f.sortValues(a, asc)
    }
    def nested(c: DatabaseConnector): NestedChain = steps.foldLeft(NestedChain(c.lang, "Bench", "wisconsin")) {
      case (f, Filter(e))    => f.filter(e)
      case (f, Select(as))   => f.select(as: _*)
      case (f, Sort(a, asc)) => f.sortValues(a, asc)
    }
    /** The sort still pending at the action: a select that drops its key applies it. */
    def pendingSort: Option[String] = steps.foldLeft(Option.empty[String]) {
      case (_, Sort(a, _))                          => Some(a)
      case (Some(k), Select(as)) if !as.contains(k) => None
      case (s, _)                                   => s
    }
  }

  /** Value domains of the numeric attributes (`tenPercent` is also missing on 10%). */
  private val numeric: Map[String, (Int, Int)] = Map(
    "unique1" -> (0, 1999), "unique2" -> (0, 1999), "two" -> (0, 1), "four" -> (0, 3),
    "ten" -> (0, 9), "twenty" -> (0, 19), "onePercent" -> (0, 99), "tenPercent" -> (1, 9),
    "twentyPercent" -> (0, 4), "fiftyPercent" -> (0, 1), "unique3" -> (0, 1999),
    "evenOnePercent" -> (0, 198), "oddOnePercent" -> (1, 199))

  /** String literals, quotes and backslashes among them, near the data's values. */
  private val strings = Seq("H", "O'", "V\"", "A\\", "it's", "say \"hi\"", "back\\slash", "'\"\\",
    "AAAAB", "AAABx'", "AAAC\"x", "AAADx\\")

  private def cmp(attr: String, v: Any): Gen[PFExpr] = Gen.oneOf[PFExpr](
    col(attr) === v, col(attr) =!= v, col(attr) > v, col(attr) < v, col(attr) >= v, col(attr) <= v)

  private def leaf(cols: Seq[String]): Gen[PFExpr] = Gen.oneOf(cols).flatMap { a =>
    numeric.get(a) match {
      case Some((lo, hi)) => Gen.frequency(
        6 -> Gen.choose(lo, hi).flatMap(v => cmp(a, v)),
        1 -> Gen.oneOf[PFExpr](col(a) === null, col(a) =!= null, col(a).isna, !col(a).isna))
      case None => Gen.frequency(
        6 -> Gen.oneOf(strings).flatMap(v => cmp(a, v)),
        1 -> Gen.oneOf[PFExpr](col(a) === null, col(a) =!= null))
    }
  }

  private def condition(cols: Seq[String]): Gen[PFExpr] = Gen.frequency(
    4 -> leaf(cols),
    1 -> Gen.zip(leaf(cols), leaf(cols)).map { case (l, r) => l && r },
    1 -> Gen.zip(leaf(cols), leaf(cols)).map { case (l, r) => l || r },
    1 -> leaf(cols).map(!_))

  private def steps(cols: Seq[String], n: Int): Gen[List[Step]] =
    if (n == 0) Gen.const(Nil)
    else Gen.frequency(
      3 -> condition(cols).map(c => (Filter(c): Step, cols)),
      2 -> Gen.atLeastOne(cols).map(as => (Select(as.toSeq): Step, as.toSeq)),
      2 -> Gen.zip(Gen.oneOf(cols), Gen.oneOf(true, false)).map { case (a, asc) => (Sort(a, asc): Step, cols) },
    ).flatMap { case (s, next) => steps(next, n - 1).map(s :: _) }

  private val program: Gen[Program] = for {
    n      <- Gen.choose(1, 10)
    ss     <- steps(WisconsinData.columns, n)
    action <- Gen.oneOf("count", "head", "collectAll")
  } yield Program(ss, action)

  /** The fused action and the nested text give the same answer on `c`. */
  private def agree(c: DatabaseConnector, p: Program): Unit = {
    val pf     = p.fused(frame(c))
    val nested = p.nested(c)
    def run(q: String) = c.run(q, "wisconsin")
    p.action match {
      case "count" => assert(pf.count() == run(nested.countQuery).scalarLong)
      case "collectAll" =>
        val (got, want) = (pf.collectAll(), run(nested.collectQuery))
        assert(columnSet(got) == columnSet(want))
        assert(got.canonicalRows == want.canonicalRows)
        p.pendingSort.foreach(k => assert(keys(got, k) == keys(want, k)))
      case "head" =>
        val (got, want) = (pf.head(5), run(nested.headQuery(5)))
        assert(columnSet(got) == columnSet(want))
        assert(got.size == want.size)
        p.pendingSort match {
          case Some(k) => assert(keys(got, k) == keys(want, k))
          case None    => // arbitrary rows: each must be a row of the whole result
            val all = run(nested.collectQuery).canonicalRows
            assert(got.canonicalRows.diff(all).isEmpty)
        }
    }
  }

  test("random filter/select/sort chains: the fused query equals the rule-by-rule nested one on DuckDB and Spark SQL") {
    val programs = (1L to 40L).map(s => s -> program.pureApply(Gen.Parameters.default, Seed(s)))
    programs.foreach { case (seed, p) =>
      Seq(duckConn, sparkConn).foreach(c => withClue(s"seed $seed on ${c.name}: $p")(agree(c, p)))
    }
    // the seeds reach every action, a dropped sort key and a filter under a select
    assert(programs.map(_._2.action).toSet == Set("count", "head", "collectAll"))
    assert(programs.exists { case (_, p) => p.steps.exists(_.isInstanceOf[Sort]) && p.pendingSort.isEmpty })
    assert(programs.exists { case (_, p) =>
      p.steps.dropWhile(!_.isInstanceOf[Select]).exists(_.isInstanceOf[Filter]) })
  }
}
