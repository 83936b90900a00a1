package repro.wisconsin

import repro.SparkSpec
import org.apache.spark.sql.functions._

/** Table II invariants of the scalable Wisconsin benchmark generator. */
class WisconsinDataSpec extends SparkSpec {

  private val N = 2000L
  private lazy val df = WisconsinData.generate(spark, N).cache()
  private lazy val rows = df.collect().map(r =>
    WisconsinData.columns.zip(r.toSeq).toMap)

  test("generates exactly n records with the Table II schema") {
    assert(df.count() == N)
    assert(df.columns.toSeq == WisconsinData.columns)
  }

  test("unique2 is the sequential key 0..n-1") {
    val u2 = rows.map(_("unique2").asInstanceOf[Long]).sorted
    assert(u2.toSeq == (0L until N))
    // and actually sequential in generation order
    assert(df.select("unique2").collect().map(_.getLong(0)).toSeq == (0L until N))
  }

  test("unique1 is a permutation of 0..n-1 (unique, dense)") {
    val u1 = rows.map(_("unique1").asInstanceOf[Long])
    assert(u1.distinct.length == N)
    assert(u1.min == 0 && u1.max == N - 1)
  }

  test("unique1 is not sequential (randomly distributed)") {
    val u1 = df.select("unique1").collect().map(_.getLong(0))
    val inOrder = u1.sliding(2).count { case Array(a, b) => b == a + 1 }
    assert(inOrder < N / 10, s"unique1 looks sequential ($inOrder adjacent pairs)")
  }

  test("modulo-derived attributes follow Table II exactly") {
    rows.foreach { r =>
      val u1 = r("unique1").asInstanceOf[Long]
      assert(r("two") == (u1 % 2).toInt)
      assert(r("four") == (u1 % 4).toInt)
      assert(r("ten") == (u1 % 10).toInt)
      assert(r("twenty") == (u1 % 20).toInt)
      assert(r("onePercent") == (u1 % 100).toInt)
      assert(r("twentyPercent") == (u1 % 5).toInt)
      assert(r("fiftyPercent") == (u1 % 2).toInt)
      assert(r("unique3") == u1)
      assert(r("evenOnePercent") == ((u1 % 100) * 2).toInt)
      assert(r("oddOnePercent") == ((u1 % 100) * 2 + 1).toInt)
    }
  }

  test("tenPercent carries 10% missing values (the paper's modification)") {
    val missing = rows.count(_("tenPercent") == null)
    assert(missing == N / 10)
    rows.foreach { r =>
      val u1 = r("unique1").asInstanceOf[Long]
      if (u1 % 10 == 0) assert(r("tenPercent") == null)
      else assert(r("tenPercent") == (u1 % 10).toInt)
    }
  }

  test("selectivity structure: known percentages of rows per predicate") {
    assert(df.filter(col("ten") === 4).count() == N / 10)
    assert(df.filter(col("onePercent").between(40, 60)).count() == N * 21 / 100)
    assert(df.filter(col("two") === 0).count() == N / 2)
    assert(df.filter(col("twentyPercent") === 2).count() == N / 5)
  }

  test("string attributes: 52 chars, 7-letter prefix, x padding") {
    rows.take(50).foreach { r =>
      val s1 = r("stringu1").asInstanceOf[String]
      val s2 = r("stringu2").asInstanceOf[String]
      assert(s1.length == 52 && s2.length == 52)
      assert(s1.take(7).forall(c => c >= 'A' && c <= 'Z'))
      assert(s1.drop(7).forall(_ == 'x'))
    }
  }

  test("stringu1/stringu2 are derived deterministically from unique1/unique2") {
    rows.take(50).foreach { r =>
      assert(r("stringu1") == WisconsinData.stringFromNumber(r("unique1").asInstanceOf[Long]))
      assert(r("stringu2") == WisconsinData.stringFromNumber(r("unique2").asInstanceOf[Long]))
    }
    // distinct unique1 => distinct stringu1
    assert(rows.map(_("stringu1")).distinct.length == N)
  }

  test("string4 cycles through A, H, O, V") {
    val vals = df.select("string4").distinct().collect().map(_.getString(0)).sorted
    assert(vals.toSeq == Seq("A", "H", "O", "V"))
    assert(df.filter(col("string4") === "A").count() == N / 4)
  }

  test("generation is deterministic in (n, seed)") {
    val a = WisconsinData.generate(spark, 500, seed = 7).collect().map(_.toSeq)
    val b = WisconsinData.generate(spark, 500, seed = 7).collect().map(_.toSeq)
    assert(a.sameElements(b))
  }

  test("different seeds shift the permutation") {
    val a = WisconsinData.generate(spark, 500, seed = 1).select("unique1").collect().map(_.getLong(0))
    val b = WisconsinData.generate(spark, 500, seed = 2).select("unique1").collect().map(_.getLong(0))
    assert(!a.sameElements(b))
  }

  test("permMultiplier is coprime with n") {
    Seq(10L, 1000L, 48271L * 2, 20000L).foreach { n =>
      val a = WisconsinData.permMultiplier(n)
      assert(BigInt(a).gcd(BigInt(n)) == 1, s"n=$n a=$a")
    }
  }

  test("JSON-lines export omits missing tenPercent attributes") {
    val tmp = java.nio.file.Files.createTempFile("wisc", ".json")
    try {
      val size = WisconsinData.writeJsonLines(WisconsinData.generate(spark, 100), tmp)
      assert(size > 0)
      val lines = java.nio.file.Files.readAllLines(tmp)
      assert(lines.size == 100)
      assert(lines.stream.filter(l => !l.contains("\"tenPercent\"")).count == 10)
      // every line parses with the strict JSON parser
      lines.forEach(l => repro.util.Json.parse(l))
    } finally java.nio.file.Files.deleteIfExists(tmp)
  }

  test("empty dataset (n=0) generates cleanly — the 'Empty' baseline") {
    assert(WisconsinData.generate(spark, 0).count() == 0)
  }
}
