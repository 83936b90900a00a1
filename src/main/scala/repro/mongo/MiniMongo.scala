package repro.mongo

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.json4s._
import org.json4s.jackson.JsonMethods.compact
import repro.util.JArr

/** MiniMongo: an interpreter for the MongoDB aggregation-pipeline subset
  * that PolyFrame's Mongo rewrite rules emit, executing on Spark
  * DataFrames. This is the stand-in substrate for MongoDB itself (see
  * DESIGN.md §3) — the generated pipelines are *executed*, so the rewrite
  * rules are validated by results, not just text.
  *
  * Supported stages: $match (empty, $expr, simple equality), $project
  * (include / computed / exclude), $addFields, $group (struct `_id` +
  * accumulators, restored via $addFields exactly as the rewrites emit),
  * $sort, $limit, $count, $lookup (let/pipeline correlated form) and
  * $unwind.
  *
  * Expression operators: field paths (`$a`, `$_id.a`), $eq/$ne/$gt/$lt/
  * $gte/$lte (with MongoDB's `<op> null` missing-data idioms), $and/$or/
  * $not, $add/$subtract/$multiply/$divide/$mod, $toUpper/$toLower/$toInt/
  * $toString, $cond, $ifNull; accumulators $min/$max/$avg/$sum/$stdDevPop.
  */
object MiniMongo {

  final case class MongoError(msg: String) extends RuntimeException(msg)

  /** Run `pipeline` (a parsed JSON array of stages) against `base`;
    * `collections` resolves `$lookup.from` references.
    */
  def run(base: DataFrame, pipeline: JArr, collections: String => DataFrame): DataFrame =
    pipeline.arr.foldLeft(base)((df, stage) => applyStage(df, stageObj(stage), collections))

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

  private def applyStage(df: DataFrame, stage: (String, JValue),
                         collections: String => DataFrame): DataFrame = stage match {
    case ("$match", JObject(Nil)) => df
    case ("$match", o: JObject) =>
      o \ "$expr" match {
        case JNothing =>
          // simple equality document: { field: value, ... }
          df.filter(o.obj.map { case (f, v) => col(f) === litOf(v) }.reduce(_ && _))
        case e => df.filter(expr(e))
      }

    case ("$project", JObject(fields)) =>
      val kept = fields.filter { case (_, Num(0.0)) => false; case _ => true }
      if (kept.isEmpty) df.drop(fields.map(_._1).filter(df.columns.contains): _*)
      else df.select(kept.map {
        case (k, Num(1.0)) => col(k)
        case (k, v)        => expr(v).as(k)
      }: _*)

    case ("$addFields", JObject(fields)) =>
      fields.foldLeft(df) { case (d, (k, v)) => d.withColumn(k, expr(v)) }

    case ("$group", o @ JObject(fields)) =>
      val accs = fields.collect {
        case (alias, spec: JObject) if alias != "_id" => accumulator(spec).as(alias)
      }
      if (accs.isEmpty) throw MongoError("$group requires at least one accumulator")
      o \ "_id" match {
        case JObject(Nil) =>
          df.agg(accs.head, accs.tail: _*).withColumn("_id", lit(null))
        case JObject(kf) =>
          val idStruct = struct(kf.map { case (k, v) => expr(v).as(k) }: _*).as("_id")
          df.groupBy(idStruct).agg(accs.head, accs.tail: _*)
        case JNothing => throw MongoError("$group requires _id")
        case other    => throw MongoError(s"unsupported _id: ${compact(other)}")
      }

    case ("$sort", JObject(fields)) =>
      val orders = fields.map {
        case (f, Num(-1.0)) => col(f).desc
        case (f, _)         => col(f).asc
      }
      df.orderBy(orders: _*)

    case ("$limit", Num(n)) => df.limit(n.toInt)

    case ("$count", JString(name)) => df.agg(count(lit(1)).as(name))

    case ("$lookup", spec: JObject) => lookup(df, spec, collections)

    case ("$unwind", spec: JObject) =>
      val path = str(spec \ "path").stripPrefix("$")
      if (spec \ "preserveNullAndEmptyArrays" == JBool(true)) df.withColumn(path, explode_outer(col(path)))
      else df.withColumn(path, explode(col(path)))

    case (op, v) => throw MongoError(s"unsupported stage $op: ${compact(v)}")
  }

  /** Correlated `$lookup`: stages of the sub-pipeline that reference a
    * `$$variable` become the equi-join condition; the remaining stages are
    * applied to the foreign collection first (as MongoDB would).
    */
  private def lookup(left: DataFrame, spec: JObject,
                     collections: String => DataFrame): DataFrame = {
    val from   = str(spec \ "from")
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
    var joinKeys = List.empty[(String, String)] // (rightField, leftField)
    var right    = collections(from)
    stages.foreach { s =>
      stageObj(s) match {
        case ("$match", o: JObject) if refersToVariable(o \ "$expr") =>
          o \ "$expr" \ "$eq" match {
            case JArray(List(JString(a), JString(b))) =>
              val (varSide, fieldSide) =
                if (a.startsWith("$$")) (a, b) else (b, a)
              val leftField = letVars.getOrElse(varSide.stripPrefix("$$"),
                throw MongoError(s"unknown $$-variable $varSide"))
              joinKeys ::= (fieldSide.stripPrefix("$"), leftField)
            case _ => throw MongoError(s"unsupported correlated $$expr: ${compact(o)}")
          }
        case st => right = applyStage(right, st, collections)
      }
    }
    if (joinKeys.isEmpty) throw MongoError("$lookup without a correlated predicate")

    val rightKeyCols = joinKeys.map(_._1)
    val grouped = right
      .groupBy(rightKeyCols.map(f => col(f).as(s"__mk_$f")): _*)
      .agg(collect_list(struct(right.columns.map(col): _*)).as(asName))
    val cond = joinKeys.map { case (rf, lf) => left(lf) === grouped(s"__mk_$rf") }.reduce(_ && _)
    left.join(grouped, cond, "left").drop(rightKeyCols.map(f => s"__mk_$f"): _*)
  }

  private def litOf(j: JValue): Column = j match {
    case JNull      => lit(null)
    case JBool(b)   => lit(b)
    case JString(s) => lit(s)
    case Num(d)     => if (d.isWhole && math.abs(d) < 1e15) lit(d.toLong) else lit(d)
    case other      => throw MongoError(s"not a literal: ${compact(other)}")
  }

  /** Translate a MongoDB expression to a Spark Column. */
  def expr(j: JValue): Column = j match {
    case JString(s) if s.startsWith("$$") => throw MongoError(s"unbound variable $s")
    case JString(s) if s.startsWith("$")  => col(s.stripPrefix("$"))
    case JString(_) | JNull | JBool(_) | Num(_) => litOf(j)
    case JObject(List((op, v))) =>
      def pair: (JValue, JValue) = v match {
        case JArray(List(a, b)) => (a, b)
        case other => throw MongoError(s"$op expects a 2-array: ${compact(other)}")
      }
      def all: List[Column] = v match {
        case JArray(xs) => xs.map(expr)
        case other      => throw MongoError(s"bad $op: ${compact(other)}")
      }
      op match {
        // MongoDB BSON-order idioms for missing data: `x < null` is true
        // only for missing/null x; `x > null` is true for present x.
        case "$lt" if pair._2 == JNull => expr(pair._1).isNull
        case "$gt" if pair._2 == JNull => expr(pair._1).isNotNull
        case "$eq" if pair._2 == JNull => expr(pair._1).isNull
        case "$eq"  => expr(pair._1) === expr(pair._2)
        // as in MongoDB, a missing value is not equal to any value
        case "$ne"  => !(expr(pair._1) <=> expr(pair._2))
        case "$gt"  => expr(pair._1) > expr(pair._2)
        case "$lt"  => expr(pair._1) < expr(pair._2)
        case "$gte" => expr(pair._1) >= expr(pair._2)
        case "$lte" => expr(pair._1) <= expr(pair._2)
        case "$and" => all.reduce(_ && _)
        case "$or"  => all.reduce(_ || _)
        case "$not" => v match {
          case JArray(List(x)) => !expr(x)
          case x               => !expr(x)
        }
        case "$add"      => expr(pair._1) + expr(pair._2)
        case "$subtract" => expr(pair._1) - expr(pair._2)
        case "$multiply" => expr(pair._1) * expr(pair._2)
        case "$divide"   => expr(pair._1) / expr(pair._2)
        case "$mod"      => expr(pair._1) % expr(pair._2)
        case "$toUpper"  => upper(expr(v))
        case "$toLower"  => lower(expr(v))
        case "$toInt"    => expr(v).cast("int")
        case "$toString" => expr(v).cast("string")
        case "$cond" => v match {
          case JArray(List(c, t, e)) => when(expr(c), expr(t)).otherwise(expr(e))
          case o                     => throw MongoError(s"bad $$cond: ${compact(o)}")
        }
        case "$ifNull" => coalesce(expr(pair._1), expr(pair._2))
        case other => throw MongoError(s"unsupported operator $other")
      }
    case other => throw MongoError(s"unsupported expression: ${compact(other)}")
  }

  /** Accumulator expressions inside $group. */
  private def accumulator(spec: JObject): Column = {
    val (op, v) = spec.obj.head
    op match {
      case "$min" => min(expr(v))
      case "$max" => max(expr(v))
      case "$avg" => avg(expr(v))
      case "$stdDevPop" => stddev_pop(expr(v))
      case "$sum" => v match {
        case Num(n) => sum(lit(n.toLong))
        case other  => sum(expr(other))
      }
      case other => throw MongoError(s"unsupported accumulator $other")
    }
  }
}
