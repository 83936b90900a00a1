package repro.cypher

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.SparkSql
import repro.util.SparkSql.{Query, view}
import CypherExpr._

/** MiniCypher: parser + engine for the Cypher subset PolyFrame's rewrite
  * rules emit, running on Spark — the stand-in substrate for Neo4j
  * (DESIGN.md §3).
  *
  * A clause list is lowered to one Spark SQL query, its clauses folded into
  * `SELECT` blocks (`SparkSql.Query`), and run with `spark.sql`, so Spark
  * parses and analyzes the whole program once.
  *
  * Execution state is **flat columns, one per (variable, attribute)**:
  * `t.attr` is the column named `t.attr` (see `CypherExpr.stateName`), a
  * `WITH v{…}` projection is a `SELECT` of aliased columns, and a join
  * MATCH prefixes both sides, so `t` and `r` never collide. A per-run map
  * from each variable to its attribute list says which columns `RETURN v`
  * takes back to their bare names. Flat columns keep Catalyst cheap on
  * notebook-style chains: a struct column per variable made
  * `CollapseProject` inline each `CreateNamedStruct` into every
  * `GetStructField` of the next projection, so stacked `WITH t{…}` clauses
  * grew the expression trees multiplicatively before they were simplified
  * (up to seconds of optimizer time per action).
  *
  * Clauses, read from the one token stream `CypherExpr.tokenize` makes of
  * the query (a string literal may span lines):
  * {{{
  * MATCH(t: label)                      scan
  * MATCH(r: label) WHERE t.a = r.b     join with the current state
  * WITH t{'a': expr, ...}              map projection (variable stays t)
  * WITH t WHERE pred                    filter (t.`a b` quotes an attribute name)
  * WITH { 'k': t.k, 'x': max(t.a) } AS t   implicit-grouping aggregation
  * WITH t ORDER BY t.a [DESC]           sort, nulls last both ways
  * WITH t, r                            keep these variables
  * RETURN COUNT(*) AS t                 count action
  * RETURN t                             t's attributes as bare columns
  * LIMIT n
  * }}}
  */
object MiniCypher {

  final case class CypherError(msg: String) extends RuntimeException(msg)

  sealed trait Clause
  final case class MatchScan(variable: String, label: String)                    extends Clause
  final case class MatchJoin(variable: String, label: String, pred: Ast)         extends Clause
  final case class WithProjection(variable: String, fields: Seq[(String, Ast)])  extends Clause
  final case class WithWhere(variable: String, pred: Ast)                        extends Clause
  final case class WithGroup(fields: Seq[(String, Ast)], as: String)             extends Clause
  final case class WithOrder(variable: String, key: Ast, desc: Boolean)          extends Clause
  final case class WithVars(vars: Seq[String])                                   extends Clause
  final case class ReturnCount(alias: String)                                    extends Clause
  final case class ReturnVar(variable: String)                                   extends Clause
  final case class LimitClause(n: Int)                                           extends Clause

  /** Read the clauses from one token stream; line breaks carry no meaning. */
  def parseClauses(query: String): Seq[Clause] = {
    val p = new Parser(tokenize(query))
    val clauses = Vector.newBuilder[Clause]
    while (p.peek.nonEmpty) clauses += clause(p)
    clauses.result()
  }

  private def clause(p: Parser): Clause =
    if (p.acceptKw("MATCH")) {
      p.expectOp("("); val v = ident(p); p.expectOp(":"); val label = ident(p); p.expectOp(")")
      if (p.acceptKw("WHERE")) MatchJoin(v, label, p.parseExpr()) else MatchScan(v, label)
    } else if (p.acceptKw("WITH")) {
      if (p.accept("{")) {
        val fs = fields(p); p.expectKw("AS"); WithGroup(fs, ident(p))
      } else {
        val v = ident(p)
        if (p.accept("{")) WithProjection(v, fields(p))
        else if (p.acceptKw("WHERE")) WithWhere(v, p.parseExpr())
        else if (p.acceptKw("ORDER")) {
          p.expectKw("BY"); val key = p.parseExpr(); WithOrder(v, key, p.acceptKw("DESC"))
        } else {
          val vs = Vector.newBuilder[String] += v
          while (p.accept(",")) vs += ident(p)
          WithVars(vs.result())
        }
      }
    } else if (p.acceptKw("RETURN")) {
      if (p.acceptKw("COUNT")) {
        p.expectOp("("); p.expectOp("*"); p.expectOp(")"); p.expectKw("AS"); ReturnCount(ident(p))
      } else ReturnVar(ident(p))
    } else if (p.acceptKw("LIMIT")) p.next() match {
      case TNum(n) => LimitClause(n.toInt)
      case t       => throw CypherError(s"LIMIT needs a number, found $t")
    } else throw CypherError(s"unparseable clause at ${p.toks.take(8).mkString(" ")}")

  private def ident(p: Parser): String = p.next() match {
    case TId(s) => s
    case t      => throw CypherError(s"expected a name, found $t")
  }

  /** The entries of a `{'alias': expr, ...}` map, up to its closing brace. */
  private def fields(p: Parser): Seq[(String, Ast)] = {
    def field(): (String, Ast) = {
      val alias = p.next() match {
        case TStr(s) => s
        case TId(s)  => s
        case t       => throw CypherError(s"expected an alias, found $t")
      }
      p.expectOp(":")
      alias -> p.parseExpr()
    }
    val fs = Vector.newBuilder[(String, Ast)] += field()
    while (p.accept(",")) fs += field()
    p.expectOp("}")
    fs.result()
  }

  def run(query: String, collections: String => DataFrame): DataFrame =
    runClauses(parseClauses(query), collections)

  /** Lower the clauses to one Spark SQL query, folded into `SELECT` blocks
    * (`SparkSql.Query`), and run it with `spark.sql`.
    */
  def runClauses(clauses: Seq[Clause], collections: String => DataFrame): DataFrame = {
    var q: Query = null
    var spark: SparkSession = null // the session of the scanned collections
    var vars = Map.empty[String, Seq[String]] // variable -> its attributes, in column order
    def list(xs: Seq[String]): String = xs.mkString(", ")
    def next(f: Query => Query): Unit = {
      require(q != null, "a Cypher program starts with a MATCH scan")
      q = f(q)
    }
    /** Scan `label`, its columns renamed to the state columns of variable `v`. */
    def bind(v: String, label: String): Query = {
      val source = collections(label)
      spark = source.sparkSession
      vars += v -> source.columns.toSeq
      Query(view(source), list(vars(v).map(c => s"${SparkSql.ident(c)} AS ${stateRef(v, c)}")))
    }
    clauses.foreach {
      case MatchScan(v, label) =>
        require(q == null, "MATCH scan must be the first clause")
        q = bind(v, label)

      case MatchJoin(v, label, pred) =>
        require(!vars.contains(v), s"variable $v is already bound")
        next(l => Query(s"(\n${l.sql}\n) q JOIN (\n${bind(v, label).sql}\n) r ON ${toSql(pred)}"))

      case WithProjection(v, fields) =>
        next(_.select(list(fields.map { case (a, e) => s"${toSql(e)} AS ${stateRef(v, a)}" })))
        vars = Map(v -> fields.map(_._1))

      case WithWhere(_, pred) =>
        next(_.filter(toSql(pred)))

      case WithGroup(fields, as) =>
        require(fields.exists { case (_, e) => containsAggregate(e) }, "WITH-group needs at least one aggregate")
        val items = fields.map { case (a, e) =>
          s"${if (containsAggregate(e)) toAggSql(e) else toSql(e)} AS ${stateRef(as, a)}"
        }
        next(_.select(list(items), list(fields.collect { case (_, e) if !containsAggregate(e) => toSql(e) })))
        vars = Map(as -> fields.map(_._1))

      case WithOrder(_, key, desc) =>
        // Pandas' na_position='last' both ways (Neo4j, too, sorts nulls last ascending)
        next(_.sort(s"${toSql(key)} ${if (desc) "DESC" else "ASC"} NULLS LAST"))

      case WithVars(vs) =>
        vs.foreach(v => require(vars.contains(v), s"unbound variable $v"))
        vars = vars.filter { case (v, _) => vs.contains(v) }

      case ReturnCount(alias) =>
        next(_.select(s"COUNT(1) AS ${SparkSql.ident(alias)}"))

      case ReturnVar(v) =>
        require(vars.contains(v), s"unbound variable $v")
        next(_.select(list(vars(v).map(a => s"${stateRef(v, a)} AS ${SparkSql.ident(a)}"))))

      case LimitClause(n) =>
        next(_.take(n))
    }
    require(q != null, "empty Cypher program")
    spark.sql(q.sql)
  }
}
