package repro.util

import java.util.IdentityHashMap
import org.apache.spark.sql.DataFrame

/** Spark SQL text for the engines that lower their own query language to
  * one Spark SQL query per action (MiniMongo, MiniCypher), so every
  * Spark-backed connector gets its plan from `spark.sql`, as the Spark SQL
  * connector does. Names and literals that reach the text go through
  * `ident` and `string`, so no value can change the query's shape.
  */
object SparkSql {

  /** A backtick-quoted identifier; a backtick inside it is doubled. */
  def ident(name: String): String = "`" + name.replace("`", "``") + "`"

  /** A string literal; Spark's parser reads backslash escapes, so `\` and
    * `'` are escaped.
    */
  def string(s: String): String = "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"

  /** A number literal typed as `functions.lit` would type it: BIGINT when
    * whole, DOUBLE otherwise.
    */
  def number(d: Double): String = {
    val s = if (d.isWhole && math.abs(d) < 1e15) s"${d.toLong}L" else s"${d}D"
    if (d < 0) s"($s)" else s
  }

  /** One `SELECT` block of a lowered query. A stage joins the current block
    * while SQL's clause order (`WHERE`, `GROUP BY`, `SELECT`, `ORDER BY`,
    * `LIMIT`) gives it the same meaning as running after the block, and
    * otherwise the block becomes a subquery `(…) q` of a new one. Fewer
    * blocks mean less for Spark to analyze and optimize.
    */
  final case class Query(from: String, items: String = "*", where: Seq[String] = Nil,
                         groupBy: String = "", orderBy: String = "", limit: String = "") {
    def sql: String =
      s"SELECT $items FROM $from" +
        (if (where.isEmpty) "" else where.mkString(" WHERE ", " AND ", "")) +
        (if (groupBy.isEmpty) "" else s" GROUP BY $groupBy") +
        (if (orderBy.isEmpty) "" else s" ORDER BY $orderBy") +
        (if (limit.isEmpty) "" else s" LIMIT $limit")

    private def plain = items == "*" && groupBy.isEmpty && limit.isEmpty
    private def nested = Query(s"(\n$sql\n) q")

    /** Rows that satisfy `cond`; a filter commutes with a sort. */
    def filter(cond: String): Query = if (plain) copy(where = where :+ cond) else nested.filter(cond)

    /** The select list `items`, grouped by `keys` when they are given. */
    def select(items: String, keys: String = ""): Query =
      if (plain && orderBy.isEmpty) copy(items = items, groupBy = keys) else nested.select(items, keys)

    /** Sorted; `ORDER BY` reads the block's output names, so it may follow its `SELECT`. */
    def sort(keys: String): Query = if (orderBy.isEmpty && limit.isEmpty) copy(orderBy = keys) else nested.sort(keys)

    def take(n: Int): Query = if (limit.isEmpty) copy(limit = n.toString) else nested.take(n)
  }

  private val views = new IdentityHashMap[DataFrame, String]

  /** The quoted name under which Spark SQL text reads `df`: an engine-private
    * temp view (`frame#n`: `#` cannot occur in an unquoted collection name,
    * so it cannot collide with a Spark SQL connector's view in the same
    * session), registered the first time `df` is read and kept, so an action
    * makes no catalog change. The view holds `df`'s plan, so its cached data
    * serves the query.
    */
  def view(df: DataFrame): String = views.synchronized {
    if (!views.containsKey(df)) {
      val name = s"frame#${views.size + 1}"
      df.createOrReplaceTempView(ident(name))
      views.put(df, name)
    }
    ident(views.get(df))
  }
}
