package repro.eager

import repro.SparkSpec
import repro.bench.Benchmark
import repro.core.{LocalResult, PFExpr}
import repro.core.dsl._
import repro.wisconsin.WisconsinData
import java.nio.file.Files

/** The eager Pandas-baseline substrate: JSON loading with schema
  * inference, eager operation semantics, and the memory-budget OOM model.
  */
class EagerFrameSpec extends SparkSpec {

  private lazy val jsonPath = {
    val p = Files.createTempFile("eager", ".json")
    WisconsinData.writeJsonLines(WisconsinData.generate(spark, 1000), p)
    p
  }
  private lazy val df = EagerFrame.readJsonLines(jsonPath, MemoryBudget.unlimited)

  /** A frame on its own budget, its load's transient charges released. */
  private def charged(): (EagerFrame, MemoryBudget) = {
    val budget = new MemoryBudget(Long.MaxValue / 2)
    val d = EagerFrame.readJsonLines(jsonPath, budget)
    budget.resetTransient()
    (d, budget)
  }

  /** The values of column `c` in row order. */
  private def values(r: LocalResult, c: String): Seq[Any] = r.rows.map(_(r.columns.indexOf(c)))
  private def column(f: EagerFrame, c: String): Seq[Any] = values(f.collectAll(), c)

  test("read_json infers the full schema including sparse attributes") {
    assert(df.columns.toSet == WisconsinData.columns.toSet)
    assert(df.count() == 1000)
  }

  test("missing attributes load as nulls") {
    assert(column(df, "tenPercent").count(_ == null) == 100)
  }

  test("select copies the requested columns") {
    val s = df.select("two", "four")
    assert(s.columns == Vector("two", "four"))
    assert(s.count() == 1000)
  }

  test("comparison masks materialize full boolean arrays (eager)") {
    val (d, budget) = charged()
    val f = d.filter(col("ten") === 4)
    assert(f.count() == 100)
    // one 1,000-byte mask over every row, then the filtered copy
    assert(budget.used - d.sizeBytes == 1000 + f.sizeBytes)
  }

  test("mask conjunction (expression 3)") {
    assert(df.filter(col("ten") === 4 && col("twentyPercent") === 4 && col("two") === 0).count() == 100)
  }

  test("filter + head (expression 10)") {
    assert(df.filter(col("ten") === 4).head(5).size == 5)
  }

  test("group by count (expression 4)") {
    val g = df.groupBy("oddOnePercent").agg("count")
    assert(g.columns == Vector("oddOnePercent", "count_oddOnePercent"))
    assert(g.count() == 100)
    assert(column(g, "count_oddOnePercent").forall(_ == 10L))
  }

  test("group by max (expression 8)") {
    val g = df.groupBy("twenty").agg("max", "four")
    assert(g.columns == Vector("twenty", "max_four"))
    assert(g.count() == 20)
    val m = g.rows.map(r => r(0).asInstanceOf[Long] -> r(1).asInstanceOf[Long]).toMap
    m.foreach { case (twenty, maxFour) => assert(maxFour == twenty % 4) }
  }

  test("map upper computes the whole column before head (expression 5)") {
    val u = df("stringu1").map("upper")
    assert(u.count() == 1000)
    assert(column(u, "stringu1").forall(v => v.toString == v.toString.toUpperCase))
  }

  test("max / min (expressions 6, 7)") {
    assert(df("unique1").max() == 999.0)
    assert(df("unique1").min() == 0.0)
  }

  test("sort descending materializes a full copy, head picks top (expression 9)") {
    val top = df.sortValues("unique1", ascending = false).head(5)
    assert(values(top, "unique1") == Seq(999L, 998L, 997L, 996L, 995L))
  }

  test("range mask (expression 11)") {
    assert(df.filter(col("onePercent") >= 40 && col("onePercent") <= 60).count() == 210)
  }

  test("join inner-joins on keys (expression 12)") {
    val j = df.join(df, "unique1", "unique1")
    assert(j.count() == 1000)
    assert(j.columns.length == 2 * df.columns.length)
  }

  test("isna mask (expression 13)") {
    assert(df.filter(col("tenPercent").isna).count() == 100)
  }

  test("isna is false for present values") {
    assert(df.filter(col("unique1").isna).count() == 0)
  }

  test("memory budget: load fails when table exceeds budget (the M/L/XL OOM)") {
    val tiny = new MemoryBudget(10_000)
    intercept[EagerOutOfMemoryException](EagerFrame.readJsonLines(jsonPath, tiny))
  }

  test("memory budget: intermediates count and reset per expression") {
    val size = df.sizeBytes
    // load peaks at 2×size (table + parse intermediates), so 2.2× fits
    val budget = new MemoryBudget((size * 2.2).toLong)
    val d2 = EagerFrame.readJsonLines(jsonPath, budget)
    // one full-copy op fits...
    budget.resetTransient()
    d2.sortValues("unique1")
    // ...but a chain of full copies within one expression does not
    budget.resetTransient()
    intercept[EagerOutOfMemoryException] {
      d2.sortValues("unique1").sortValues("unique1").sortValues("unique1")
    }
    // and after a reset (next expression) we are healthy again
    budget.resetTransient()
    d2.sortValues("unique1")
  }

  test("creation charges parse intermediates: 2× the table is needed to load") {
    val size = df.sizeBytes
    intercept[EagerOutOfMemoryException](
      EagerFrame.readJsonLines(jsonPath, new MemoryBudget((size * 1.9).toLong)))
  }

  test("memory estimate grows with strings") {
    val small = EagerFrame.estimate(Array(Array[Any](1L)))
    val big   = EagerFrame.estimate(Array(Array[Any]("x" * 100)))
    assert(big > small)
  }

  test("a series view copies nothing, and its head copies only its column") {
    val (d, budget) = charged()
    val before = budget.used
    val s = d("unique1")
    assert(s.sizeBytes == 0 && s.columns == Vector("unique1"))
    assert(s.max() == 999.0 && s.count() == 1000)
    assert(budget.used == before)
    val five = s.head(5)
    assert(five.columns == Seq("unique1") && five.size == 5)
    // five rows of one boxed value each
    assert(budget.used == before + 5 * (16 + 16))
  }

  test("eager evaluation order: masks charge budget even if never used") {
    val (d2, budget) = charged()
    val before = budget.used
    d2.filter(col("ten") === 10) // keeps no row — eager evaluation still paid for the mask
    assert(budget.used == before + 1000)
  }

  test("Table III expressions charge pinned transient bytes: one 1,000-byte mask per node, plus copies") {
    val budget = new MemoryBudget(Long.MaxValue / 2)
    val t = new Benchmark.EagerTarget(jsonPath, budget)
    t.create()
    budget.resetTransient()
    val base = budget.used
    val bytes = (1 to 13).map { i => t.runExpr(i); i -> (budget.used - base) }.toMap
    assert(bytes == Map(1 -> 0L, 2 -> 48240L, 3 -> 62800L, 4 -> 4800L, 5 -> 168840L, 6 -> 0L, 7 -> 0L,
      8 -> 960L, 9 -> 580090L, 10 -> 61690L, 11 -> 124140L, 12 -> 1138400L, 13 -> 58000L))
    // expressions 3, 10, 11 and 13: 5, 1, 3 and 1 masks, plus the filtered copy (and 10's head)
    val filtered3 = df.filter(col("ten") === 4 && col("twentyPercent") === 4 && col("two") === 0)
    assert(bytes(3) == 5 * 1000 + filtered3.sizeBytes)
    val filtered10 = df.filter(col("ten") === 4)
    assert(bytes(10) == 1000 + filtered10.sizeBytes + EagerFrame.estimate(filtered10.rows.take(5)))
    assert(bytes(11) == 3 * 1000 + df.filter(col("onePercent") >= 40 && col("onePercent") <= 60).sizeBytes)
    assert(bytes(13) == 1000 + df.filter(col("tenPercent").isna).sizeBytes)
  }

  test("Pandas comparison semantics: missing values, != and text order") {
    // tenPercent is missing on 100 rows and 3 on another 100
    assert(df.filter(col("tenPercent") =!= 3).count() == 900)
    assert(df.filter(col("tenPercent") === 1 || col("tenPercent") === 2).count() == 200)
    assert(df.filter(col("tenPercent") < 3).count() == 200)
    // `~(s >= 3)` negates False, so Pandas keeps the missing rows
    assert(df.filter(!(col("tenPercent") >= 3)).count() == 300)
    assert(df.filter(col("tenPercent") === null).count() == 0)
    assert(df.filter(col("tenPercent") =!= null).count() == 1000)
    // stringu1 spells unique1 in base-26 letters: "AAAAB..." is 676, and a prefix sorts first
    assert(df.filter(col("stringu1") >= "AAAAB").count() == 1000 - 676)
    assert(df.filter(col("stringu1") < "AAAAB").count() == 676)
  }

  test("sorts put missing values last in both directions") {
    for (ascending <- Seq(true, false)) {
      val keys = column(df.sortValues("tenPercent", ascending), "tenPercent")
      assert(keys.takeRight(100).forall(_ == null) && !keys.take(900).contains(null), s"ascending=$ascending")
      val present = keys.take(900).map(_.asInstanceOf[Long])
      assert(present == (if (ascending) present.sorted else present.sorted.reverse), s"ascending=$ascending")
    }
    val names = column(df.sortValues("stringu1"), "stringu1").map(_.toString)
    assert(names == names.sorted)
  }

  test("nodes and functions outside the evaluator raise an error that names them") {
    val arith = intercept[UnsupportedOperationException](
      df.filter(PFExpr.Cmp("eq", PFExpr.Arith("add", col("ten"), lit(1)), lit(5))))
    assert(arith.getMessage.contains("Arith"))
    assert(intercept[UnsupportedOperationException](df("stringu1").map("to_int")).getMessage.contains("to_int"))
    assert(intercept[UnsupportedOperationException](df.groupBy("two").agg("avg", "four")).getMessage.contains("avg"))
  }
}
