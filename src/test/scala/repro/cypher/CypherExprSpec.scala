package repro.cypher

import org.scalatest.funsuite.AnyFunSuite
import CypherExpr._

class CypherExprSpec extends AnyFunSuite {

  test("parses attribute references") {
    assert(parse("t.unique1") == Ref("t", "unique1"))
    assert(parse("r.unique1") == Ref("r", "unique1"))
  }

  test("parses literals") {
    assert(parse("42") == Num(42))
    assert(parse("4.5") == Num(4.5))
    assert(parse("1.0E-4") == Num(1e-4))
    assert(parse("1.23456785E7") == Num(12345678.5))
    assert(parse("\"en\"") == Str("en"))
    assert(parse("'en'") == Str("en"))
    assert(parse("NULL") == NullLit)
    assert(parse("true") == Bool(true))
  }

  test("parses comparisons") {
    assert(parse("t.ten = 4") == Bin("=", Ref("t", "ten"), Num(4)))
    assert(parse("t.a <> 4") == Bin("<>", Ref("t", "a"), Num(4)))
    assert(parse("t.a >= 40") == Bin(">=", Ref("t", "a"), Num(40)))
    assert(parse("t.a <= 60") == Bin("<=", Ref("t", "a"), Num(60)))
    assert(parse("""t.lang = "en"""") == Bin("=", Ref("t", "lang"), Str("en")))
  }

  test("parses IS NULL / IS NOT NULL") {
    assert(parse("t.tenPercent IS NULL") == IsNull(Ref("t", "tenPercent"), negated = false))
    assert(parse("t.tenPercent IS NOT NULL") == IsNull(Ref("t", "tenPercent"), negated = true))
  }

  test("AND binds tighter than OR; NOT tighter than AND") {
    assert(parse("t.a = 1 AND t.b = 2 OR t.c = 3") ==
      Bin("or", Bin("and", Bin("=", Ref("t", "a"), Num(1)), Bin("=", Ref("t", "b"), Num(2))),
                Bin("=", Ref("t", "c"), Num(3))))
    assert(parse("NOT t.a = 1 AND t.b = 2") ==
      Bin("and", NotOp(Bin("=", Ref("t", "a"), Num(1))), Bin("=", Ref("t", "b"), Num(2))))
  }

  test("left-chained AND matches the rewrite output for expression 3") {
    assert(parse("t.ten = 4 AND t.twentyPercent = 4 AND t.two = 0") ==
      Bin("and", Bin("and",
        Bin("=", Ref("t", "ten"), Num(4)),
        Bin("=", Ref("t", "twentyPercent"), Num(4))),
        Bin("=", Ref("t", "two"), Num(0))))
  }

  test("arithmetic precedence: * over +") {
    assert(parse("t.a + t.b * 2") ==
      Bin("+", Ref("t", "a"), Bin("*", Ref("t", "b"), Num(2))))
    assert(parse("(t.a + t.b) * 2") ==
      Bin("*", Bin("+", Ref("t", "a"), Ref("t", "b")), Num(2)))
  }

  test("parses function calls") {
    assert(parse("upper(t.stringu1)") == Call("upper", List(Ref("t", "stringu1"))))
    assert(parse("toInteger(t.a = 1)") ==
      Call("toInteger", List(Bin("=", Ref("t", "a"), Num(1)))))
    assert(parse("count(*)") == Call("count", List(Star)))
    assert(parse("min(t.unique1)") == Call("min", List(Ref("t", "unique1"))))
    assert(parse("stDevP(t.a)") == Call("stDevP", List(Ref("t", "a"))))
  }

  test("aggregate detection") {
    assert(containsAggregate(parse("max(t.four)")))
    assert(containsAggregate(parse("count(*)")))
    assert(!containsAggregate(parse("t.twenty")))
    assert(!containsAggregate(parse("upper(t.s)")))
  }

  test("unary minus") {
    assert(parse("-5") == Bin("-", Num(0), Num(5)))
  }

  test("rejects malformed expressions") {
    intercept[MiniCypher.CypherError](parse("t."))
    intercept[MiniCypher.CypherError](parse("t.a ="))
    intercept[MiniCypher.CypherError](parse("(t.a"))
    intercept[MiniCypher.CypherError](parse("t.a = 1 extra ,"))
  }

  test("tokenizer: quoted strings with all three quote styles") {
    assert(tokenize("'a' \"b\" `c`") == List(TStr("a"), TStr("b"), TStr("c")))
  }
}
