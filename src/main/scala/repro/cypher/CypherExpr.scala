package repro.cypher

import MiniCypher.CypherError
import repro.util.SparkSql.{ident, number, string}

/** Expression AST + parser for the Cypher subset PolyFrame emits.
  *
  * Grammar (precedence low→high): OR, AND, NOT, comparison
  * (= <> > < >= <= / IS NULL / IS NOT NULL), additive (+ -),
  * multiplicative (* / %), primary (literal, `var.attr`, function call,
  * parenthesized). Aggregate calls (min/max/avg/sum/count/stDevP) are
  * parsed as functions; the executor decides aggregate vs scalar context.
  */
object CypherExpr {

  sealed trait Ast
  final case class Ref(variable: String, attr: String) extends Ast
  final case class Var(variable: String)               extends Ast
  final case class Str(s: String)                      extends Ast
  final case class Num(d: Double)                      extends Ast
  final case class Bool(b: Boolean)                    extends Ast
  case object NullLit                                  extends Ast
  case object Star                                     extends Ast
  final case class Bin(op: String, l: Ast, r: Ast)     extends Ast
  final case class NotOp(e: Ast)                       extends Ast
  final case class IsNull(e: Ast, negated: Boolean)    extends Ast
  final case class Call(fn: String, args: List[Ast])   extends Ast

  val aggregateFns: Set[String] = Set("min", "max", "avg", "sum", "count", "stdevp")

  /** Does the expression contain an aggregate call anywhere? */
  def containsAggregate(a: Ast): Boolean = a match {
    case Call(fn, args) => aggregateFns.contains(fn.toLowerCase) || args.exists(containsAggregate)
    case Bin(_, l, r)   => containsAggregate(l) || containsAggregate(r)
    case NotOp(e)       => containsAggregate(e)
    case IsNull(e, _)   => containsAggregate(e)
    case _              => false
  }

  // ------------------------------------------------------------------ lexer

  sealed trait Tok
  final case class TId(s: String)  extends Tok
  final case class TStr(s: String) extends Tok
  final case class TNum(d: Double) extends Tok
  final case class TOp(s: String)  extends Tok // punctuation & comparison ops

  def tokenize(input: String): List[Tok] = {
    val out = List.newBuilder[Tok]
    var i = 0
    while (i < input.length) {
      val c = input(i)
      if (c.isWhitespace) i += 1
      else if (c == '\'' || c == '"' || c == '`') {
        val q = c; val sb = new StringBuilder; i += 1
        while (i < input.length && input(i) != q) {
          if (input(i) == '\\' && i + 1 < input.length) { sb.append(input(i + 1)); i += 2 }
          else { sb.append(input(i)); i += 1 }
        }
        if (i >= input.length) throw CypherError(s"unterminated string in: $input")
        i += 1
        out += TStr(sb.toString)
      }
      else if (c.isDigit) {
        val start = i
        while (i < input.length && (input(i).isDigit || input(i) == '.')) i += 1
        // an exponent, as Java prints a double: `1.0E-4`, `1.23456785E7`
        if (i < input.length && (input(i) == 'e' || input(i) == 'E')) {
          val digits = if (i + 1 < input.length && (input(i + 1) == '+' || input(i + 1) == '-')) i + 2 else i + 1
          if (digits < input.length && input(digits).isDigit) {
            i = digits
            while (i < input.length && input(i).isDigit) i += 1
          }
        }
        out += TNum(input.substring(start, i).toDouble)
      }
      else if (c.isLetter || c == '_') {
        val start = i
        while (i < input.length && (input(i).isLetterOrDigit || input(i) == '_')) i += 1
        out += TId(input.substring(start, i))
      }
      else {
        val two = if (i + 1 < input.length) input.substring(i, i + 2) else ""
        if (Set(">=", "<=", "<>").contains(two)) { out += TOp(two); i += 2 }
        else if ("=<>()+-*/%,.{}:".contains(c))  { out += TOp(c.toString); i += 1 }
        else throw CypherError(s"unexpected character '$c' in: $input")
      }
    }
    out.result()
  }

  // ------------------------------------------------------------------ parser

  final class Parser(var toks: List[Tok]) {
    def peek: Option[Tok] = toks.headOption
    def next(): Tok = toks match {
      case t :: rest => toks = rest; t
      case Nil       => throw CypherError("unexpected end of expression")
    }
    def accept(op: String): Boolean = toks match {
      case TOp(`op`) :: rest => toks = rest; true
      case _ => false
    }
    def acceptKw(kw: String): Boolean = toks match {
      case TId(id) :: rest if id.equalsIgnoreCase(kw) => toks = rest; true
      case _ => false
    }
    def expectOp(op: String): Unit =
      if (!accept(op)) throw CypherError(s"expected '$op', found $toks")
    def expectKw(kw: String): Unit =
      if (!acceptKw(kw)) throw CypherError(s"expected $kw, found $toks")

    def parseExpr(): Ast = parseOr()

    private def parseOr(): Ast = {
      var l = parseAnd()
      while (acceptKw("OR")) l = Bin("or", l, parseAnd())
      l
    }
    private def parseAnd(): Ast = {
      var l = parseNot()
      while (acceptKw("AND")) l = Bin("and", l, parseNot())
      l
    }
    private def parseNot(): Ast =
      if (acceptKw("NOT")) NotOp(parseNot()) else parseCmp()

    private def parseCmp(): Ast = {
      var l = parseAdd()
      var done = false
      while (!done) {
        toks match {
          case TOp(op) :: _ if Set("=", "<>", ">", "<", ">=", "<=").contains(op) =>
            next(); l = Bin(op, l, parseAdd())
          case TId(id) :: _ if id.equalsIgnoreCase("IS") =>
            next()
            val neg = acceptKw("NOT")
            if (!acceptKw("NULL")) throw CypherError("expected NULL after IS")
            l = IsNull(l, neg)
          case _ => done = true
        }
      }
      l
    }
    private def parseAdd(): Ast = {
      var l = parseMul()
      var done = false
      while (!done) toks match {
        case TOp("+") :: _ => next(); l = Bin("+", l, parseMul())
        case TOp("-") :: _ => next(); l = Bin("-", l, parseMul())
        case _ => done = true
      }
      l
    }
    private def parseMul(): Ast = {
      var l = parsePrimary()
      var done = false
      while (!done) toks match {
        case TOp("*") :: _ => next(); l = Bin("*", l, parsePrimary())
        case TOp("/") :: _ => next(); l = Bin("/", l, parsePrimary())
        case TOp("%") :: _ => next(); l = Bin("%", l, parsePrimary())
        case _ => done = true
      }
      l
    }

    private def parsePrimary(): Ast = next() match {
      case TNum(d) => Num(d)
      case TStr(s) => Str(s)
      case TOp("(") =>
        val e = parseExpr(); expectOp(")"); e
      case TOp("*") => Star
      case TOp("-") => Bin("-", Num(0), parsePrimary())
      case TId(id) if id.equalsIgnoreCase("NULL")  => NullLit
      case TId(id) if id.equalsIgnoreCase("TRUE")  => Bool(true)
      case TId(id) if id.equalsIgnoreCase("FALSE") => Bool(false)
      case TId(id) =>
        toks match {
          case TOp("(") :: _ =>                       // function call
            next()
            if (accept("*")) { expectOp(")"); Call(id, List(Star)) }
            else if (accept(")")) Call(id, Nil)
            else {
              val args = List.newBuilder[Ast]
              args += parseExpr()
              while (accept(",")) args += parseExpr()
              expectOp(")")
              Call(id, args.result())
            }
          case TOp(".") :: TId(attr) :: rest =>       // var.attr
            toks = rest; Ref(id, attr)
          case TOp(".") :: TStr(attr) :: rest =>      // var.`quoted attr`
            toks = rest; Ref(id, attr)
          case _ => Var(id)
        }
      case t => throw CypherError(s"unexpected token $t")
    }
  }

  def parse(text: String): Ast = {
    val p = new Parser(tokenize(text))
    val e = p.parseExpr()
    if (p.toks.nonEmpty) throw CypherError(s"trailing tokens ${p.toks} in: $text")
    e
  }

  // ------------------------------------------------------------------ to Spark SQL

  /** Name of MiniCypher's state column for attribute `attr` of variable `v`. */
  private[cypher] def stateName(v: String, attr: String): String = s"$v.$attr"

  /** MiniCypher's flat state column for `v.attr`, quoted for SQL text. */
  private[cypher] def stateRef(v: String, attr: String): String = ident(stateName(v, attr))

  private val binaryOps = Set("=", "<>", ">", "<", ">=", "<=", "+", "-", "*", "/", "%")

  /** Scalar translation to Spark SQL; `t.attr` is its own flat state column. */
  def toSql(a: Ast): String = a match {
    case Ref(v, attr) => stateRef(v, attr)
    case Str(s)       => string(s)
    case Num(d)       => number(d)
    case Bool(b)      => if (b) "TRUE" else "FALSE"
    case NullLit      => "NULL"
    case Star         => "1"
    case Bin(op, l, r) =>
      val sqlOp = op match {
        case "and" => "AND"
        case "or"  => "OR"
        case o if binaryOps(o) => o
        case o     => throw CypherError(s"unsupported operator $o")
      }
      s"(${toSql(l)} $sqlOp ${toSql(r)})"
    case NotOp(e)         => s"(NOT ${toSql(e)})"
    case IsNull(e, false) => s"(${toSql(e)} IS NULL)"
    case IsNull(e, true)  => s"(${toSql(e)} IS NOT NULL)"
    case Call(fn, args)   => scalarCall(fn, args)
    case other => throw CypherError(s"cannot translate $other")
  }

  private def scalarCall(fn: String, args: List[Ast]): String = fn.toLowerCase match {
    case "upper"     => s"upper(${toSql(args.head)})"
    case "lower"     => s"lower(${toSql(args.head)})"
    case "tointeger" => s"CAST(${toSql(args.head)} AS BIGINT)"
    case "tostring"  => s"CAST(${toSql(args.head)} AS STRING)"
    case "coalesce"  => s"coalesce(${args.map(toSql).mkString(", ")})"
    case other       => throw CypherError(s"unsupported function $other")
  }

  /** Aggregate translation (used inside WITH-grouping). */
  def toAggSql(a: Ast): String = a match {
    case Call(fn, args) => fn.toLowerCase match {
      case "count" if args == List(Star) => "count(1)"
      case f @ ("count" | "min" | "max" | "avg" | "sum") => s"$f(${toSql(args.head)})"
      case "stdevp" => s"stddev_pop(${toSql(args.head)})"
      case other    => throw CypherError(s"unsupported aggregate $other")
    }
    case other => throw CypherError(s"not an aggregate: $other")
  }
}
