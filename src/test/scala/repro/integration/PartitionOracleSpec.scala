package repro.integration

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.connector._
import repro.core.dsl._
import repro.core.{PFExpr, PolyFrame}
import repro.eager.{EagerFrame, MemoryBudget}
import repro.wisconsin.WisconsinData

/** A Pandas mask is two-valued: a comparison with a missing value is
  * False, and `~` negates it. So for every predicate `p`,
  * `len(df[p]) + len(df[~p]) == len(df)`. This is the partition oracle of
  * Rigger & Su ("Finding Bugs in Database Systems via Query Partitioning",
  * OOPSLA 2020) without the third, unknown partition, which Pandas lacks.
  * It needs no reference evaluator. The suite also holds the four
  * connectors to EagerFrame on every `count(p)`. Predicates come from one
  * ScalaCheck generator on fixed seeds.
  */
class PartitionOracleSpec extends SparkSpec {

  private val N = 2000L

  private lazy val data = WisconsinData.generate(spark, N).cache()

  /** The four connectors and EagerFrame over the same rows. */
  private lazy val systems: Seq[Subject] = {
    val connectors = Seq(new SparkSqlConnector(spark), new DuckDbConnector(), new MongoConnector(spark), new CypherConnector(spark))
    val eager = EagerFrame(data.columns.toSeq, data.collect().map(_.toSeq.toArray[Any]), MemoryBudget.unlimited)
    connectors.map { c =>
      c.initialize("Bench", "wisconsin", data)
      val df = PolyFrame(c, "Bench", "wisconsin", WisconsinData.columns)
      Subject(c.name, df, df)
    } :+ Subject("EagerFrame", eager, eager)
  }

  // ------------------------------------------------------------ predicates

  /** Value domains of the numeric attributes; `tenPercent` is also missing on 10%. */
  private val numeric: Seq[(String, (Int, Int))] = Seq(
    "unique1" -> (0, 1999), "two" -> (0, 1), "ten" -> (0, 9), "onePercent" -> (0, 99),
    "tenPercent" -> (1, 9), "twentyPercent" -> (0, 4), "oddOnePercent" -> (1, 199))

  private val strings = Seq("stringu1", "string4")

  /** Equality literals: quotes, a backslash, a leading `$`, a newline and
    * non-ASCII letters, beside values the data holds.
    */
  private val awkward = Seq("it's \"q\" \\", "$string4\nÜnïcødé ß")
  private val present = Seq("A", "H")

  /** Order literals are ASCII: engines may order other text differently. */
  private val ordered = Seq("AAAAB", "AAB", "H", "O", "V")

  private def compare(l: PFExpr, r: PFExpr): Gen[PFExpr] =
    Gen.oneOf("eq", "ne", "gt", "lt", "ge", "le").map(PFExpr.Cmp(_, l, r))

  /** A numeric attribute, tenPercent (with its missing values) most often. */
  private val numericAttr: Gen[String] =
    Gen.frequency(3 -> Gen.const("tenPercent"), 4 -> Gen.oneOf(numeric.map(_._1)))

  /** A value of `a`'s domain, or a negative or fractional number. */
  private def numericLit(a: String): Gen[PFExpr] = {
    val (lo, hi) = numeric.toMap.apply(a)
    Gen.frequency(
      6 -> Gen.choose(lo, hi),
      1 -> Gen.choose(-5, -1),
      1 -> Gen.choose(lo, hi).map(_ + 0.5),
    ).map(lit)
  }

  private val leaf: Gen[PFExpr] = Gen.frequency(
    // an attribute left of a literal, right of one, or on both sides
    6 -> numericAttr.flatMap(a => numericLit(a).flatMap(compare(col(a), _))),
    1 -> numericAttr.flatMap(a => numericLit(a).flatMap(compare(_, col(a)))),
    1 -> Gen.zip(numericAttr, numericAttr).flatMap { case (a, b) => compare(col(a), col(b)) },
    2 -> Gen.zip(Gen.oneOf(strings), Gen.oneOf(awkward ++ present)).flatMap { case (a, v) => Gen.oneOf(col(a) === v, col(a) =!= v) },
    1 -> Gen.zip(Gen.oneOf(strings), Gen.oneOf(ordered)).flatMap { case (a, v) => compare(col(a), lit(v)) },
    1 -> Gen.oneOf("tenPercent", "ten").map(col(_).isna),
    // Pandas rejects `<`/`>` against None, so only `==` and `!=`
    2 -> Gen.oneOf("tenPercent", "stringu1").flatMap(a => Gen.oneOf(col(a) === null, col(a) =!= null)),
  )

  /** `&&`, `||` and `!` nested to `depth`. */
  private def predicate(depth: Int): Gen[PFExpr] =
    if (depth == 0) leaf
    else Gen.frequency(
      2 -> leaf,
      1 -> Gen.zip(predicate(depth - 1), predicate(depth - 1)).map { case (l, r) => l && r },
      1 -> Gen.zip(predicate(depth - 1), predicate(depth - 1)).map { case (l, r) => l || r },
      1 -> predicate(depth - 1).map(!_),
    )

  private lazy val predicates: Seq[PFExpr] =
    (1L to 16L).map(s => predicate(3).pureApply(Gen.Parameters.default, Seed(s)))

  /** The features of `e` the seeds must reach. */
  private def features(e: PFExpr): Set[String] = e match {
    case PFExpr.Logical(op, l, r)     => features(l) ++ features(r) + op
    case PFExpr.Not(x)                => features(x) + "not"
    case PFExpr.IsNa(x)               => features(x) + "isna"
    case PFExpr.Cmp(_, PFExpr.Attr(a), PFExpr.Attr(b)) => Set(a, b, "two attributes")
    case PFExpr.Cmp(op, v: PFExpr.Lit, a: PFExpr.Attr) => features(PFExpr.Cmp(op, a, v)) + "literal left"
    case PFExpr.Cmp(_, PFExpr.Attr(a), PFExpr.Lit(v)) => Set(a, v match {
      case null            => "None"
      case s: String       => s
      case i: Int if i < 0 => "negative"
      case _: Double       => "fraction"
      case _               => "number"
    })
    case _ => Set.empty
  }

  /** `count(p)` and `count(!p)` for each predicate, on each system. */
  private lazy val counts: Seq[(PFExpr, Seq[(String, (Long, Long))])] = predicates.map { p =>
    p -> systems.map(s => s.name -> (s.df.filter(p).count(), s.df.filter(!p).count()))
  }

  test("the fixed seeds draw AND, OR, NOT, isna, None, tenPercent, negative and fractional numbers and every awkward string") {
    val want = Set("and", "or", "not", "isna", "None", "negative", "fraction", "tenPercent",
      "literal left", "two attributes") ++ awkward
    assert(want -- predicates.flatMap(features) == Set.empty)
  }

  test("count(p) + count(!p) == N for 16 generated predicates on the four connectors and EagerFrame") {
    val broken = for ((p, bySystem) <- counts; (name, (yes, no)) <- bySystem if yes + no != N)
      yield s"$name: $yes + $no for $p"
    if (broken.nonEmpty) fail(broken.mkString("\n"))
  }

  test("count(p) of 16 generated predicates is equal on the four connectors and EagerFrame") {
    val differ = counts.collect { case (p, bySystem) if bySystem.map(_._2._1).distinct.size > 1 =>
      s"$p: ${bySystem.map { case (name, (yes, _)) => s"$name=$yes" }.mkString(" ")}" }
    if (differ.nonEmpty) fail(differ.mkString("\n"))
  }

  test("numeric literals keep their value and parse on the four connectors and EagerFrame") {
    // 1e19 is past Long.MaxValue; Java prints 0.0001 and 12345678.5 in exponent form
    val probes = Seq((col("unique1") < 1e19) -> N, (col("unique1") > 0.0001) -> (N - 1),
      (col("onePercent") <= 12345678.5) -> N)
    for ((p, want) <- probes; s <- systems) assert(s.df.filter(p).count() == want, s"${s.name}: $p")
  }

  test("x != y keeps the rows where y is missing on the four connectors and EagerFrame") {
    // tenPercent is missing on 200 rows and 4 on 200 others; where present it equals ten
    val probes = Seq(PFExpr.Cmp("ne", lit(4), col("tenPercent")) -> (N - 200),
      PFExpr.Cmp("ne", col("ten"), col("tenPercent")) -> 200L)
    val wrong = for ((p, want) <- probes; s <- systems; got = s.df.filter(p).count() if got != want)
      yield s"${s.name}: $got, not $want, for $p"
    if (wrong.nonEmpty) fail(wrong.mkString("\n"))
  }
}
