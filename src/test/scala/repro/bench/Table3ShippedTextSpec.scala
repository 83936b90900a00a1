package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.DataFrame
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DatabaseConnector, LanguageConfig, LocalResult}
import repro.core.languages.Languages

/** Pins the text each Table III expression ships in every stock language
  * configuration, byte for byte, against `table3_shipped.txt`: a rule
  * change that reaches the benchmark queries shows up here as a diff.
  */
class Table3ShippedTextSpec extends AnyFunSuite {

  /** Records what each action ships and answers every action with 0. */
  private final class Recorder(val lang: LanguageConfig) extends DatabaseConnector {
    val shipped = Vector.newBuilder[String]
    override def name = s"recorder-${lang.name}"
    override def initialize(namespace: String, collection: String, data: DataFrame): Unit = ()
    override def execute(query: String, baseCollection: String): LocalResult = {
      shipped += query
      LocalResult(Seq("v"), Seq(Seq(0L)))
    }
  }

  private def rendered(config: String): String = {
    val rec    = new Recorder(Languages.all(config))
    val target = new Benchmark.PolyFrameTarget(rec, "Bench", "wisconsin", "wisconsin2")
    target.create()
    (1 to 13).foreach(target.runExpr)
    val texts = rec.shipped.result()
    assert(texts.size == 13, s"$config: one query per expression")
    texts.zipWithIndex.map { case (q, i) => s"### $config expr ${i + 1}\n$q\n" }.mkString
  }

  test("the 13 Table III expressions ship the pinned text in all five configurations") {
    val got  = Seq("sql++", "sql", "sparksql", "mongo", "cypher").map(rendered).mkString
    val want = new String(getClass.getResourceAsStream("/table3_shipped.txt").readAllBytes(), UTF_8)
    // text by text first, so a failure names its configuration and expression
    got.split("(?=### )").zipAll(want.split("(?=### )"), "", "").foreach { case (g, w) => assert(g == w) }
    assert(got == want)
  }
}
