package repro.core

import repro.SparkSpec

/** LocalResult — the Pandas-DataFrame analogue actions return. */
class LocalResultSpec extends SparkSpec {

  test("normalize collapses the JVM numeric zoo to Long/Double") {
    assert(LocalResult.normalize(3: Byte) == 3L)
    assert(LocalResult.normalize(3: Short) == 3L)
    assert(LocalResult.normalize(3) == 3L)
    assert(LocalResult.normalize(3L) == 3L)
    assert(LocalResult.normalize(3.5f) == 3.5)
    assert(LocalResult.normalize(3.5) == 3.5)
    assert(LocalResult.normalize(3.0) == 3L) // whole doubles become Long
    assert(LocalResult.normalize(new java.math.BigDecimal("42")) == 42L)
    assert(LocalResult.normalize(new java.math.BigDecimal("4.25")) == 4.25)
    assert(LocalResult.normalize(java.math.BigInteger.valueOf(7)) == 7L)
    assert(LocalResult.normalize(null) == null)
    assert(LocalResult.normalize("x") == "x")
    assert(LocalResult.normalize(true) == true)
  }

  test("scalar accessors") {
    val r = LocalResult(Seq("n"), Seq(Seq(41L)))
    assert(r.scalar == 41L)
    assert(r.scalarLong == 41L)
    assert(r.scalarDouble == 41.0)
    assert(LocalResult(Seq("d"), Seq(Seq(2.5))).scalarDouble == 2.5)
    intercept[IllegalArgumentException](LocalResult(Seq("n"), Nil).scalar)
  }

  test("canonical form ignores row order and column order") {
    val a = LocalResult(Seq("k", "v"), Seq(Seq(1L, "a"), Seq(2L, "b")))
    val b = LocalResult(Seq("V", "K"), Seq(Seq("b", 2L), Seq("a", 1L)))
    assert(a.canonicalRows == b.canonicalRows)
    assert(a.canonicalRows != LocalResult(Seq("k", "v"), Seq(Seq(1L, "b"), Seq(2L, "a"))).canonicalRows)
  }

  test("canonical form sorts rows by column, not by their concatenation") {
    // ("1","23") and ("12","3") concatenate to the same text; the order they
    // arrive in must not matter
    val rows = Seq(Seq("1", "23"), Seq("12", "3"))
    assert(LocalResult(Seq("a", "b"), rows).canonicalRows ==
           LocalResult(Seq("a", "b"), rows.reverse).canonicalRows)
  }

  test("canonical form treats numerically equal values as equal") {
    def one(v: Any) = LocalResult(Seq("x"), Seq(Seq(v))).canonicalRows
    assert(one(3L) == one(3.0))
    assert(one(3) == one(new java.math.BigDecimal("3.000")))
    assert(one(0.1 + 0.2) == one(0.3))
    assert(one(2.5f) == one(2.5))
    assert(one(3L) != one(3.5))
  }

  test("canonical form keeps null distinct from every string") {
    def one(v: Any) = LocalResult(Seq("x"), Seq(Seq(v))).canonicalRows
    Seq("∅", "null", "", "None").foreach(s => assert(one(null) != one(s), s))
    assert(one(null) == one(null))
  }

  test("fromDF round-trips a Spark DataFrame") {
    import spark.implicits._
    val df = Seq((1L, "a"), (2L, "b")).toDF("k", "v")
    val r  = LocalResult.fromDF(df)
    assert(r.columns == Seq("k", "v"))
    assert(r.rows.toSet == Set(Seq(1L, "a"), Seq(2L, "b")))
  }
}
