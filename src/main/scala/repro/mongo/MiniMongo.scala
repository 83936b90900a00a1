package repro.mongo

import org.apache.spark.sql.DataFrame
import org.json4s._
import org.json4s.jackson.JsonMethods.compact
import repro.util.JArr
import repro.util.SparkSql.{Query, ident, number, string, view}

/** MiniMongo: an engine for the MongoDB aggregation-pipeline subset that
  * PolyFrame's Mongo rewrite rules emit, executing on Spark. This is the
  * stand-in substrate for MongoDB itself (see DESIGN.md §3) — the
  * generated pipelines are *executed*, so the rewrite rules are validated
  * by results, not just text.
  *
  * A pipeline is lowered to one Spark SQL query, its stages folded into
  * `SELECT` blocks (`SparkSql.Query`), and run with `spark.sql`, so Spark
  * parses and analyzes the whole pipeline once. The lowering
  * tracks each stage's output fields in order, which keeps MongoDB's field
  * order (`$addFields` replaces a field in place or appends it) and
  * resolves a field path: `$a.b` names the field `a.b` when one exists,
  * else field `b` inside `a` (as `$_id.k` does after `$group`).
  *
  * Supported stages, the ones the rules emit: $match (empty, or `$expr`
  * alone), $project (include / computed / exclude), $addFields, $group
  * (struct `_id` + accumulators, restored via $addFields exactly as the
  * rewrites emit; the group runs on the key expressions and `_id` is built
  * afterwards), $sort, $limit, $count, and $lookup (let/pipeline
  * correlated form) directly followed by an `$unwind` of its `as` field
  * that drops unmatched documents (`preserveNullAndEmptyArrays: false`).
  * The pair runs as one inner equi-join with the right document under
  * `as`, as MongoDB's optimizer coalesces it; any other $lookup or
  * $unwind raises [[MongoError]].
  *
  * Expression operators: field paths (`$a`, `$_id.a`), $literal, $eq/$gt/
  * $lt/$gte/$lte (with MongoDB's `$lt`/`$gt` `null` missing-data idioms),
  * $and/$or/$not, $add/$subtract/$multiply/$divide/$mod, $toUpper/$toLower/
  * $toInt/$toString, $cond; accumulators $min/$max/$avg/$sum/$stdDevPop.
  */
object MiniMongo {

  final case class MongoError(msg: String) extends RuntimeException(msg)

  /** Run `pipeline` (a parsed JSON array of stages) against `base`;
    * `collections` resolves `$lookup.from` references.
    */
  def run(base: DataFrame, pipeline: JArr, collections: String => DataFrame): DataFrame = {
    base.sparkSession.sql(lower(from(base), pipeline.arr, collections).sql)
  }

  /** A lowered pipeline prefix: a Spark SQL query and its output fields, in order. */
  private final case class Rel(query: Query, cols: Vector[String]) {
    def sql: String = query.sql
    def next(f: Query => Query): Rel = copy(query = f(query))
    def select(items: String, keys: String = "", out: Vector[String] = cols): Rel =
      Rel(query.select(items, keys), out)
  }

  /** A JSON number's value (`Json.parse` reads integers as `JLong`). */
  private object Num {
    def unapply(j: JValue): Option[Double] = j match {
      case JLong(n)   => Some(n.toDouble)
      case JDouble(d) => Some(d)
      case _          => None
    }
  }

  private def str(j: JValue): String = j match {
    case JString(s) => s
    case other      => throw MongoError(s"expected a string: ${compact(other)}")
  }

  private def stageObj(j: JValue): (String, JValue) = j match {
    case JObject(List(stage)) => stage
    case other => throw MongoError(s"stage must be a single-key object: ${compact(other)}")
  }

  private def list(xs: Iterable[String]): String = xs.mkString(", ")

  private def from(df: DataFrame): Rel = Rel(Query(view(df)), df.columns.toVector)

  /** `stages` lowered on top of `rel`, one stage at a time. */
  private def lower(rel: Rel, stages: List[JValue], collections: String => DataFrame): Rel =
    stages match {
      case Nil => rel
      case l :: u :: rest => (stageObj(l), stageObj(u)) match {
        // MongoDB's $lookup + $unwind coalescence: the unwind drops unmatched documents
        case (("$lookup", spec: JObject), ("$unwind", unwind: JObject))
            if str(unwind \ "path") == "$" + str(spec \ "as") &&
               unwind \ "preserveNullAndEmptyArrays" != JBool(true) =>
          lower(lookup(rel, spec, collections), rest, collections)
        case (st, _) => lower(stage(rel, st, collections), u :: rest, collections)
      }
      case s :: rest => lower(stage(rel, stageObj(s), collections), rest, collections)
    }

  /** `value AS k` in place of field `k`, or appended when there is none. */
  private def withField(r: Rel, k: String, value: String): Rel = {
    val item = s"$value AS ${ident(k)}"
    if (r.cols.contains(k)) r.select(list(r.cols.map(c => if (c == k) item else ident(c))))
    else r.select(s"*, $item", out = r.cols :+ k)
  }

  private def stage(rel: Rel, stage: (String, JValue), collections: String => DataFrame): Rel = stage match {
    case ("$match", JObject(Nil)) => rel
    case ("$match", JObject(List(("$expr", cond)))) => rel.next(_.filter(expr(cond, rel.cols)))

    case ("$project", JObject(fields)) =>
      val kept = fields.filter { case (_, Num(0.0)) => false; case _ => true }
      if (kept.isEmpty) {
        val out = rel.cols.filterNot(c => fields.exists(_._1 == c))
        if (out == rel.cols) rel else rel.select(list(out.map(ident)), out = out)
      } else rel.select(list(kept.map {
        case (k, Num(1.0)) => s"${field(k, rel.cols)} AS ${ident(k)}"
        case (k, v)        => s"${expr(v, rel.cols)} AS ${ident(k)}"
      }), out = kept.map(_._1).toVector)

    case ("$addFields", JObject(fields)) =>
      fields.foldLeft(rel) { case (r, (k, v)) => withField(r, k, expr(v, r.cols)) }

    case ("$group", o @ JObject(fields)) =>
      val accs = fields.collect {
        case (alias, spec: JObject) if alias != "_id" => alias -> accumulator(spec, rel.cols)
      }
      if (accs.isEmpty) throw MongoError("$group requires at least one accumulator")
      val aggs  = accs.map { case (a, e) => s"$e AS ${ident(a)}" }
      val names = accs.map(_._1).toVector
      o \ "_id" match {
        case JObject(Nil) => rel.select(list(aggs :+ "NULL AS `_id`"), out = names :+ "_id")
        case JObject(kf) =>
          // group on the key expressions; the `_id` document is built from them after grouping
          val keys = kf.map { case (k, v) => k -> expr(v, rel.cols) }
          val id   = s"named_struct(${list(keys.map { case (k, e) => s"${string(k)}, $e" })}) AS `_id`"
          rel.select(list(id +: aggs), list(keys.map(_._2)), "_id" +: names)
        case JNothing => throw MongoError("$group requires _id")
        case other    => throw MongoError(s"unsupported _id: ${compact(other)}")
      }

    case ("$sort", JObject(fields)) =>
      // BSON order puts null first ascending and last descending, as Spark's defaults do
      rel.next(_.sort(list(fields.map {
        case (f, Num(-1.0)) => s"${field(f, rel.cols)} DESC"
        case (f, _)         => s"${field(f, rel.cols)} ASC"
      })))

    case ("$limit", Num(n)) => rel.next(_.take(n.toInt))

    case ("$count", JString(name)) => rel.select(s"COUNT(1) AS ${ident(name)}", out = Vector(name))

    case ("$lookup", _) => throw MongoError(
      "$lookup must be directly followed by an $unwind of its as field with preserveNullAndEmptyArrays false")

    case (op, v) => throw MongoError(s"unsupported stage $op: ${compact(v)}")
  }

  /** Correlated `$lookup` + `$unwind` as one inner join: stages of the
    * sub-pipeline that reference a `$$variable` become the equi-join
    * condition; the remaining stages are applied to the foreign collection
    * first (as MongoDB would). Left fields come first, then the right
    * document under `as`.
    */
  private def lookup(left: Rel, spec: JObject, collections: String => DataFrame): Rel = {
    val asName = str(spec \ "as")
    val letVars: Map[String, String] = spec \ "let" match {
      case JObject(fs) => fs.map { case (k, v) => k -> str(v).stripPrefix("$") }.toMap
      case _           => Map.empty
    }
    val stages = spec \ "pipeline" match {
      case JArray(xs) => xs
      case _          => Nil
    }
    def refersToVariable(e: JValue): Boolean =
      e.find { case JString(s) => s.startsWith("$$"); case _ => false }.isDefined

    // Split sub-pipeline stages into variable-correlated join predicates vs.
    // plain stages applied to the foreign side.
    val (correlated, plain) = stages.partition(s => stageObj(s) match {
      case ("$match", o: JObject) => refersToVariable(o \ "$expr")
      case _                      => false
    })
    val joinKeys = correlated.map(s => stageObj(s)._2 \ "$expr" \ "$eq" match { // (rightField, leftField)
      case JArray(List(JString(a), JString(b))) =>
        val (varSide, fieldSide) = if (a.startsWith("$$")) (a, b) else (b, a)
        val leftField = letVars.getOrElse(varSide.stripPrefix("$$"),
          throw MongoError(s"unknown $$-variable $varSide"))
        (fieldSide.stripPrefix("$"), leftField)
      case _ => throw MongoError(s"unsupported correlated $$expr: ${compact(stageObj(s)._2)}")
    })
    if (joinKeys.isEmpty) throw MongoError("$lookup without a correlated predicate")
    val right = lower(from(collections(str(spec \ "from"))), plain, collections)

    def rightField(c: String) = field(c, right.cols, "`__right`")
    val on = joinKeys.map { case (rf, lf) => s"${field(lf, left.cols, "`__left`")} = ${rightField(rf)}" }
    val document = s"named_struct(${list(right.cols.map(c => s"${string(c)}, ${rightField(c)}"))})"
    val items = left.cols.map(c => s"`__left`.${ident(c)}") :+ s"$document AS ${ident(asName)}"
    val joined = s"(\n${left.sql}\n) `__left` JOIN (\n${right.sql}\n) `__right` ON ${on.mkString(" AND ")}"
    Rel(Query(joined, list(items)), left.cols :+ asName)
  }

  /** A field path over the fields `cols`, optionally qualified by a relation alias. */
  private def field(path: String, cols: Seq[String], qualifier: String = ""): String = {
    val quoted = (if (cols.contains(path)) Seq(path) else path.split('.').toSeq).map(ident).mkString(".")
    if (qualifier.isEmpty) quoted else s"$qualifier.$quoted"
  }

  private def literal(j: JValue): String = j match {
    case JNull      => "NULL"
    case JBool(b)   => if (b) "TRUE" else "FALSE"
    case JString(s) => string(s)
    case Num(d)     => number(d)
    case other      => throw MongoError(s"not a literal: ${compact(other)}")
  }

  /** Render a MongoDB expression as Spark SQL over the fields `cols`. */
  def expr(j: JValue, cols: Seq[String]): String = j match {
    case JString(s) if s.startsWith("$$") => throw MongoError(s"unbound variable $s")
    case JString(s) if s.startsWith("$")  => field(s.stripPrefix("$"), cols)
    case JString(_) | JNull | JBool(_) | Num(_) => literal(j)
    case JObject(List((op, v))) =>
      def e(x: JValue) = expr(x, cols)
      def pair: (JValue, JValue) = v match {
        case JArray(List(a, b)) => (a, b)
        case other => throw MongoError(s"$op expects a 2-array: ${compact(other)}")
      }
      def binary(sqlOp: String) = s"(${e(pair._1)} $sqlOp ${e(pair._2)})"
      def all(sqlOp: String): String = v match {
        case JArray(xs) => xs.map(e).mkString("(", s" $sqlOp ", ")")
        case other      => throw MongoError(s"bad $op: ${compact(other)}")
      }
      op match {
        case "$literal" => literal(v)
        // MongoDB BSON-order idioms for missing data: `x < null` is true
        // only for missing/null x; `x > null` is true for present x.
        case "$lt" if pair._2 == JNull => s"(${e(pair._1)} IS NULL)"
        case "$gt" if pair._2 == JNull => s"(${e(pair._1)} IS NOT NULL)"
        case "$eq"  => binary("=")
        case "$gt"  => binary(">")
        case "$lt"  => binary("<")
        case "$gte" => binary(">=")
        case "$lte" => binary("<=")
        case "$and" => all("AND")
        case "$or"  => all("OR")
        // as in MongoDB, `$not` of null or missing is true
        case "$not" => s"((${e(v match { case JArray(List(x)) => x; case x => x })}) IS NOT TRUE)"
        case "$add"      => binary("+")
        case "$subtract" => binary("-")
        case "$multiply" => binary("*")
        case "$divide"   => binary("/")
        case "$mod"      => binary("%")
        case "$toUpper"  => s"upper(${e(v)})"
        case "$toLower"  => s"lower(${e(v)})"
        case "$toInt"    => s"CAST(${e(v)} AS INT)"
        case "$toString" => s"CAST(${e(v)} AS STRING)"
        case "$cond" => v match {
          case JArray(List(c, t, f)) => s"CASE WHEN ${e(c)} THEN ${e(t)} ELSE ${e(f)} END"
          case o                     => throw MongoError(s"bad $$cond: ${compact(o)}")
        }
        case other => throw MongoError(s"unsupported operator $other")
      }
    case other => throw MongoError(s"unsupported expression: ${compact(other)}")
  }

  /** Accumulator expressions inside $group. */
  private def accumulator(spec: JObject, cols: Seq[String]): String = {
    val (op, v) = spec.obj.head
    op match {
      case "$min" => s"min(${expr(v, cols)})"
      case "$max" => s"max(${expr(v, cols)})"
      case "$avg" => s"avg(${expr(v, cols)})"
      case "$stdDevPop" => s"stddev_pop(${expr(v, cols)})"
      case "$sum" => s"sum(${expr(v, cols)})"
      case other => throw MongoError(s"unsupported accumulator $other")
    }
  }
}
