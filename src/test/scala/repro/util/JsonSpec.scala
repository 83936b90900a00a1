package repro.util

import com.fasterxml.jackson.core.JsonProcessingException
import org.json4s._
import org.json4s.jackson.JsonMethods.{compact, render}
import org.scalatest.funsuite.AnyFunSuite

class JsonSpec extends AnyFunSuite {

  test("parses null / booleans / numbers") {
    assert(Json.parse("null") == JNull)
    assert(Json.parse("true") == JBool(true))
    assert(Json.parse("false") == JBool(false))
    assert(Json.parse("42") == JLong(42))
    assert(Json.parse("-7") == JLong(-7))
    assert(Json.parse("3.5") == JDouble(3.5))
    assert(Json.parse("1e3") == JDouble(1000))
  }

  test("parses strings with escapes") {
    assert(Json.parse("\"abc\"") == JString("abc"))
    assert(Json.parse("\"a\\\"b\"") == JString("a\"b"))
    assert(Json.parse("\"a\\n\\t\\\\\"") == JString("a\n\t\\"))
    assert(Json.parse("\"\\u0041\"") == JString("A"))
  }

  test("parses arrays") {
    assert(Json.parse("[1, 2, 3]") == JArray(List(JLong(1), JLong(2), JLong(3))))
    assert(Json.parse("[]") == JArray(Nil))
    assert(Json.parse("[[1],[2]]") == JArray(List(JArray(List(JLong(1))), JArray(List(JLong(2))))))
  }

  test("parses objects preserving key order") {
    val JObject(fields) = Json.parse("""{"b": 1, "z": 3, "a": 2}""")
    assert(fields.map(_._1) == Seq("b", "z", "a"))
    assert(fields.head == ("b" -> JLong(1)))
  }

  test("parses nested mongo-style pipeline") {
    val p = Json.parse("""[{"$match":{}},{"$project":{"lang":1}},{"$limit":10}]""").asInstanceOf[JArr]
    assert(p.arr.size == 3)
    assert(p.arr.head == JObject("$match" -> JObject()))
    assert(p.arr(1) == JObject("$project" -> JObject("lang" -> JLong(1))))
  }

  test("tolerates arbitrary whitespace") {
    assert(Json.parse(" {\n\t\"a\" :\n [ 1 ,\r\n 2 ] } ") == JObject("a" -> JArray(List(JLong(1), JLong(2)))))
  }

  test("rejects trailing garbage") {
    intercept[JsonProcessingException](Json.parse("1 2"))
    intercept[JsonProcessingException](Json.parse("{} x"))
    intercept[JsonProcessingException](Json.parse("[1] ]"))
  }

  test("rejects malformed input") {
    intercept[JsonProcessingException](Json.parse("{"))
    intercept[JsonProcessingException](Json.parse("[1,"))
    intercept[JsonProcessingException](Json.parse("\"abc"))
    intercept[JsonProcessingException](Json.parse("{'a': 1}"))
    intercept[JsonProcessingException](Json.parse("tru"))
    intercept[JsonProcessingException](Json.parse("\"\\u00\""))
  }

  test("accepts raw control characters inside strings, as the Mongo string literal rule emits them") {
    assert(Json.parse("[\"line1\nline2\", \"a\tb\"]") == JArray(List(JString("line1\nline2"), JString("a\tb"))))
  }

  test("round-trip: parse(render(v)) == v for 200 random trees") {
    val rnd = new scala.util.Random(42)
    def leaf(): JValue = rnd.nextInt(5) match {
      case 0 => JNull
      case 1 => JBool(rnd.nextBoolean())
      case 2 => JLong(rnd.nextInt(2000001) - 1000000)
      case 3 => JDouble(rnd.nextInt(2001) / 8.0 + 0.5)
      case 4 => JString(rnd.alphanumeric.take(rnd.nextInt(8)).mkString)
    }
    def tree(depth: Int): JValue =
      if (depth == 0) leaf()
      else rnd.nextInt(3) match {
        case 0 => leaf()
        case 1 => JArray(List.fill(rnd.nextInt(4))(tree(depth - 1)))
        case 2 => JObject(List.tabulate(rnd.nextInt(4))(i => s"k$i" -> tree(depth - 1)))
      }
    (1 to 200).foreach { _ =>
      val v = tree(3)
      assert(Json.parse(compact(render(v))) == v)
    }
  }
}
