package repro.cypher

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

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

  final case class CypherParseError(msg: String) extends RuntimeException(msg)

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
        if (i >= input.length) throw CypherParseError(s"unterminated string in: $input")
        i += 1
        out += TStr(sb.toString)
      }
      else if (c.isDigit) {
        val start = i
        while (i < input.length && (input(i).isDigit || input(i) == '.')) i += 1
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
        else throw CypherParseError(s"unexpected character '$c' in: $input")
      }
    }
    out.result()
  }

  // ------------------------------------------------------------------ parser

  final class Parser(var toks: List[Tok]) {
    def peek: Option[Tok] = toks.headOption
    def next(): Tok = toks match {
      case t :: rest => toks = rest; t
      case Nil       => throw CypherParseError("unexpected end of expression")
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
      if (!accept(op)) throw CypherParseError(s"expected '$op', found $toks")
    def expectKw(kw: String): Unit =
      if (!acceptKw(kw)) throw CypherParseError(s"expected $kw, found $toks")

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
            if (!acceptKw("NULL")) throw CypherParseError("expected NULL after IS")
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
          case _ => Var(id)
        }
      case t => throw CypherParseError(s"unexpected token $t")
    }
  }

  def parse(text: String): Ast = {
    val p = new Parser(tokenize(text))
    val e = p.parseExpr()
    if (p.toks.nonEmpty) throw CypherParseError(s"trailing tokens ${p.toks} in: $text")
    e
  }

  // ------------------------------------------------------------------ to Spark

  /** Name of MiniCypher's state column for attribute `attr` of variable `v`. */
  private[cypher] def stateName(v: String, attr: String): String = s"$v.$attr"

  /** MiniCypher's flat state column for `v.attr`. */
  private[cypher] def stateColumn(v: String, attr: String): Column = quoted(stateName(v, attr))

  /** A column by its exact name (dots and backticks taken literally). */
  private[cypher] def quoted(name: String): Column = col("`" + name.replace("`", "``") + "`")

  /** Scalar translation; `t.attr` resolves to its own flat state column. */
  def toColumn(a: Ast): Column = a match {
    case Ref(v, attr) => stateColumn(v, attr)
    case Str(s)       => lit(s)
    case Num(d)       => if (d.isWhole && math.abs(d) < 1e15) lit(d.toLong) else lit(d)
    case Bool(b)      => lit(b)
    case NullLit      => lit(null)
    case Star         => lit(1)
    case Bin("=", l, r)  => toColumn(l) === toColumn(r)
    case Bin("<>", l, r) => toColumn(l) =!= toColumn(r)
    case Bin(">", l, r)  => toColumn(l) > toColumn(r)
    case Bin("<", l, r)  => toColumn(l) < toColumn(r)
    case Bin(">=", l, r) => toColumn(l) >= toColumn(r)
    case Bin("<=", l, r) => toColumn(l) <= toColumn(r)
    case Bin("and", l, r) => toColumn(l) && toColumn(r)
    case Bin("or", l, r)  => toColumn(l) || toColumn(r)
    case Bin("+", l, r)  => toColumn(l) + toColumn(r)
    case Bin("-", l, r)  => toColumn(l) - toColumn(r)
    case Bin("*", l, r)  => toColumn(l) * toColumn(r)
    case Bin("/", l, r)  => toColumn(l) / toColumn(r)
    case Bin("%", l, r)  => toColumn(l) % toColumn(r)
    case NotOp(e)        => !toColumn(e)
    case IsNull(e, false) => toColumn(e).isNull
    case IsNull(e, true)  => toColumn(e).isNotNull
    case Call(fn, args)  => scalarCall(fn, args)
    case other => throw CypherParseError(s"cannot translate $other")
  }

  private def scalarCall(fn: String, args: List[Ast]): Column = fn.toLowerCase match {
    case "upper"     => upper(toColumn(args.head))
    case "lower"     => lower(toColumn(args.head))
    case "tointeger" => toColumn(args.head).cast("long")
    case "tostring"  => toColumn(args.head).cast("string")
    case "abs"       => abs(toColumn(args.head))
    case other       => throw CypherParseError(s"unsupported function $other")
  }

  /** Aggregate translation (used inside WITH-grouping / RETURN COUNT). */
  def toAggColumn(a: Ast): Column = a match {
    case Call(fn, args) => fn.toLowerCase match {
      case "count" if args == List(Star) => count(lit(1))
      case "count" => count(toColumn(args.head))
      case "min"   => min(toColumn(args.head))
      case "max"   => max(toColumn(args.head))
      case "avg"   => avg(toColumn(args.head))
      case "sum"   => sum(toColumn(args.head))
      case "stdevp" => stddev_pop(toColumn(args.head))
      case other   => throw CypherParseError(s"unsupported aggregate $other")
    }
    case other => throw CypherParseError(s"not an aggregate: $other")
  }
}
