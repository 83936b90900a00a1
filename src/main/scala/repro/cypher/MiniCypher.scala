package repro.cypher

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import CypherExpr._

/** MiniCypher: parser + executor for the Cypher subset PolyFrame's rewrite
  * rules emit, running on Spark DataFrames — the stand-in substrate for
  * Neo4j (DESIGN.md §3).
  *
  * Execution state is a DataFrame of **flat columns, one per (variable,
  * attribute)**: `t.attr` is the column named `t.attr` (see
  * `CypherExpr.stateColumn`), a `WITH v{…}` projection is a plain `select`
  * of aliased columns, and a join MATCH prefixes both sides, so `t` and `r`
  * never collide. A per-run map from each variable to its attribute list
  * says which columns `RETURN v` takes back to their bare names. Flat
  * columns keep Catalyst cheap on notebook-style chains: a struct column
  * per variable made `CollapseProject` inline each `CreateNamedStruct`
  * into every `GetStructField` of the next projection, so stacked
  * `WITH t{…}` clauses grew the expression trees multiplicatively before
  * they were simplified (up to seconds of optimizer time per action).
  *
  * Clauses (one per line, as the rewrite templates emit them):
  * {{{
  * MATCH(t: label)                      scan
  * MATCH(r: label) WHERE t.a = r.b     join with the current state
  * WITH t{'a': expr, ...}              map projection (variable stays t)
  * WITH t WHERE pred                    filter
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

  private val matchRe     = """(?i)^MATCH\s*\(\s*(\w+)\s*:\s*(\w+)\s*\)\s*$""".r
  private val matchJoinRe = """(?i)^MATCH\s*\(\s*(\w+)\s*:\s*(\w+)\s*\)\s+WHERE\s+(.+)$""".r
  private val withProjRe  = """(?i)^WITH\s+(\w+)\s*\{(.*)\}\s*$""".r
  private val withWhereRe = """(?i)^WITH\s+(\w+)\s+WHERE\s+(.+)$""".r
  private val withGroupRe = """(?i)^WITH\s*\{(.*)\}\s*AS\s+(\w+)\s*$""".r
  private val withOrderRe = """(?i)^WITH\s+(\w+)\s+ORDER\s+BY\s+(.+?)(\s+DESC)?\s*$""".r
  private val withVarsRe  = """(?i)^WITH\s+(\w+(?:\s*,\s*\w+)+)\s*$""".r
  private val retCountRe  = """(?i)^RETURN\s+COUNT\(\*\)\s+AS\s+(\w+)\s*$""".r
  private val retVarRe    = """(?i)^RETURN\s+(\w+)\s*$""".r
  private val limitRe     = """(?i)^LIMIT\s+(\d+)\s*$""".r

  /** Split `'alias': expr, 'alias2': expr2` on top-level commas. */
  private[cypher] def splitFields(s: String): Seq[(String, Ast)] = {
    val parts = List.newBuilder[String]
    var depth = 0; var inStr = false; var strCh = ' '
    val cur = new StringBuilder
    s.foreach { c =>
      if (inStr) { cur.append(c); if (c == strCh) inStr = false }
      else c match {
        case '\'' | '"' | '`' => inStr = true; strCh = c; cur.append(c)
        case '(' | '{' | '[' => depth += 1; cur.append(c)
        case ')' | '}' | ']' => depth -= 1; cur.append(c)
        case ',' if depth == 0 => parts += cur.toString; cur.clear()
        case _ => cur.append(c)
      }
    }
    if (cur.toString.trim.nonEmpty) parts += cur.toString
    parts.result().map { part =>
      val idx = {
        // alias separator = first ':' outside any quoting
        var i = 0; var in = false; var ch = ' '; var found = -1
        while (i < part.length && found < 0) {
          val c = part(i)
          if (in) { if (c == ch) in = false }
          else if (c == '\'' || c == '"' || c == '`') { in = true; ch = c }
          else if (c == ':') found = i
          i += 1
        }
        if (found < 0) throw CypherError(s"field without alias: '$part'")
        found
      }
      val rawAlias = part.substring(0, idx).trim
      val alias = rawAlias.stripPrefix("'").stripSuffix("'")
        .stripPrefix("\"").stripSuffix("\"")
        .stripPrefix("`").stripSuffix("`")
      alias -> CypherExpr.parse(part.substring(idx + 1).trim)
    }
  }

  def parseClauses(query: String): Seq[Clause] =
    query.linesIterator.map(_.trim).filter(_.nonEmpty).map {
      case matchRe(v, label)            => MatchScan(v, label)
      case matchJoinRe(v, label, pred)  => MatchJoin(v, label, CypherExpr.parse(pred))
      case withWhereRe(v, pred)         => WithWhere(v, CypherExpr.parse(pred))
      case withOrderRe(v, key, desc)    => WithOrder(v, CypherExpr.parse(key), desc != null)
      case withGroupRe(fields, as)      => WithGroup(splitFields(fields), as)
      case withProjRe(v, fields)        => WithProjection(v, splitFields(fields))
      case withVarsRe(vars)             => WithVars(vars.split(",").map(_.trim).toSeq)
      case retCountRe(alias)            => ReturnCount(alias)
      case retVarRe(v)                  => ReturnVar(v)
      case limitRe(n)                   => LimitClause(n.toInt)
      case other                         => throw CypherError(s"unparseable clause: '$other'")
    }.toSeq

  /** A collection's columns as the state columns of variable `v`. */
  private def bind(collection: DataFrame, v: String): DataFrame =
    collection.select(collection.columns.toIndexedSeq.map(c => quoted(c).as(stateName(v, c))): _*)

  def run(query: String, collections: String => DataFrame): DataFrame =
    runClauses(parseClauses(query), collections)

  def runClauses(clauses: Seq[Clause], collections: String => DataFrame): DataFrame = {
    var df: DataFrame = null
    var vars = Map.empty[String, Seq[String]] // variable -> its attributes, in column order
    clauses.foreach {
      case MatchScan(v, label) =>
        require(df == null, "MATCH scan must be the first clause")
        val source = collections(label)
        df = bind(source, v)
        vars = Map(v -> source.columns.toSeq)

      case MatchJoin(v, label, pred) =>
        require(!vars.contains(v), s"variable $v is already bound")
        val source = collections(label)
        df = df.join(bind(source, v), toColumn(pred), "inner")
        vars += v -> source.columns.toSeq

      case WithProjection(v, fields) =>
        df = df.select(fields.map { case (a, e) => toColumn(e).as(stateName(v, a)) }: _*)
        vars = Map(v -> fields.map(_._1))

      case WithWhere(_, pred) =>
        df = df.filter(toColumn(pred))

      case WithGroup(fields, as) =>
        val (aggs, keys) = fields.partition { case (_, e) => containsAggregate(e) }
        require(aggs.nonEmpty, "WITH-group needs at least one aggregate")
        val aggCols = aggs.map { case (a, e) => toAggColumn(e).as(stateName(as, a)) }
        df = df.groupBy(keys.map { case (a, e) => toColumn(e).as(stateName(as, a)) }: _*)
          .agg(aggCols.head, aggCols.tail: _*)
          .select(fields.map { case (a, _) => stateColumn(as, a) }: _*)
        vars = Map(as -> fields.map(_._1))

      case WithOrder(_, key, desc) =>
        // Pandas' na_position='last' both ways (Neo4j, too, sorts nulls last ascending)
        df = df.orderBy(if (desc) toColumn(key).desc_nulls_last else toColumn(key).asc_nulls_last)

      case WithVars(vs) =>
        vs.foreach(v => require(vars.contains(v), s"unbound variable $v"))
        vars = vars.filter { case (v, _) => vs.contains(v) }

      case ReturnCount(alias) =>
        df = df.agg(count(lit(1)).as(alias))

      case ReturnVar(v) =>
        require(vars.contains(v), s"unbound variable $v")
        df = df.select(vars(v).map(a => stateColumn(v, a).as(a)): _*)

      case LimitClause(n) =>
        df = df.limit(n)
    }
    require(df != null, "empty Cypher program")
    df
  }
}
