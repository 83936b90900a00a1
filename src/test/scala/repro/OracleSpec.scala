package repro

import repro.core.LocalResult

/** The DuckDB oracle must reject wrong results, not only accept right ones. */
class OracleSpec extends SparkSpec {

  private lazy val table = {
    import spark.implicits._
    Seq[(Long, String, Option[Double])]((1L, "a", Some(0.5)), (2L, "b", None), (3L, "", Some(2.0))).toDF("k", "s", "d")
  }
  private val query = "SELECT k, s, d FROM t"

  test("accepts the same rows in another row and column order") {
    Oracle.assertEquivalent(
      LocalResult(Seq("d", "k", "s"), Seq(Seq(2L, 3L, ""), Seq(0.5, 1L, "a"), Seq(null, 2L, "b"))),
      query, "t" -> table)
  }

  test("rejects a wrong row") {
    val e = intercept[IllegalArgumentException](Oracle.assertEquivalent(
      LocalResult(Seq("k", "s", "d"), Seq(Seq(1L, "a", 0.5), Seq(2L, "b", null), Seq(3L, "x", 2.0))),
      query, "t" -> table))
    assert(e.getMessage.contains("result mismatch"))
  }

  test("rejects a null in place of an empty string") {
    intercept[IllegalArgumentException](Oracle.assertEquivalent(
      LocalResult(Seq("k", "s", "d"), Seq(Seq(1L, "a", 0.5), Seq(2L, "b", null), Seq(3L, null, 2.0))),
      query, "t" -> table))
  }

  test("rejects a missing column") {
    val e = intercept[IllegalArgumentException](Oracle.assertEquivalent(
      LocalResult(Seq("k", "s"), Seq(Seq(1L, "a"), Seq(2L, "b"), Seq(3L, ""))),
      query, "t" -> table))
    assert(e.getMessage.contains("column mismatch"))
  }
}
