package repro.core

import org.apache.spark.sql.{DataFrame, Row}

/** A materialized query result, returned by actions the way AFrame returns
  * a Pandas DataFrame: a small, driver-local table.
  */
final case class LocalResult(columns: Seq[String], rows: Seq[Seq[Any]]) {

  def isEmpty: Boolean = rows.isEmpty
  def size: Int        = rows.size

  /** Single scalar convenience (COUNT/MAX/... actions). */
  def scalar: Any = {
    require(rows.nonEmpty && rows.head.nonEmpty, s"no scalar in result ($columns, ${rows.size} rows)")
    rows.head.head
  }

  def scalarLong: Long = LocalResult.normalize(scalar) match {
    case l: Long   => l
    case d: Double => d.toLong
    case other     => other.toString.toDouble.toLong
  }

  def scalarDouble: Double = LocalResult.normalize(scalar) match {
    case l: Long   => l.toDouble
    case d: Double => d
    case other     => other.toString.toDouble
  }

  /** The form every result comparison uses (the DuckDB oracle and the
    * cross-backend checks): columns ordered by lower-cased name, each
    * value rendered by `canonicalValue`, rows sorted. Row
    * order and column order are ignored; column names are not compared.
    */
  def canonicalRows: Seq[Seq[Option[String]]] = {
    import Ordering.Implicits._
    val order = columns.indices.sortBy(i => columns(i).toLowerCase)
    rows.map(r => order.map(i => LocalResult.canonicalValue(r(i)))).sorted
  }
}

object LocalResult {
  /** Collapse JVM numeric zoo (DuckDB/Spark/JSON producers) to Long/Double. */
  def normalize(v: Any): Any = v match {
    case null => null
    case b: Byte => b.toLong
    case s: Short => s.toLong
    case i: Int => i.toLong
    case l: Long => l
    case f: Float => f.toDouble
    case d: Double => if (d.isWhole && math.abs(d) < 1e15) d.toLong else d
    case bd: java.math.BigDecimal => if (bd.scale <= 0) bd.longValueExact() else bd.doubleValue()
    case bd: BigDecimal => if (bd.scale <= 0) bd.longValue else bd.doubleValue
    case bi: java.math.BigInteger => bi.longValueExact()
    case b: Boolean => b
    case s: String => s
    case d: java.sql.Date => d.toString
    case other => other.toString
  }

  /** A value as `canonicalRows` compares it: `None` for
    * null (so no string can stand in for a missing value), numbers after
    * [[normalize]] rounded to 6 decimals without trailing zeros (`3L`,
    * `3.0` and `2.9999999` all read "3"), anything else as its text.
    */
  private def canonicalValue(v: Any): Option[String] = normalize(v) match {
    case null => None
    case d: Double if !d.isNaN && !d.isInfinite =>
      Some(BigDecimal(d).setScale(6, BigDecimal.RoundingMode.HALF_UP).bigDecimal.stripTrailingZeros.toPlainString)
    case x => Some(x.toString)
  }

  def fromSparkRows(columns: Seq[String], rows: Seq[Row]): LocalResult =
    LocalResult(columns, rows.map(r => columns.indices.map(i => normalize(r.get(i)))))

  def fromDF(df: DataFrame): LocalResult =
    fromSparkRows(df.columns.toSeq, df.collect().toSeq)
}

/** Abstract database connector, as in the paper: performs initialization,
  * pre-processing of queries before sending them to the database, and
  * post-processing of results. A new backend = an implementation of these
  * methods plus a [[LanguageConfig]].
  */
trait DatabaseConnector {
  /** The language configuration whose rewrite rules this backend consumes. */
  def lang: LanguageConfig

  /** Human-readable backend name (for benches/tests). */
  def name: String

  /** Make `collection` queryable (register view / load table). */
  def initialize(namespace: String, collection: String, data: DataFrame): Unit

  /** Final query-text massaging before shipping (e.g. wrap MongoDB stages
    * in `aggregate([...])`).
    */
  def preProcess(query: String, baseCollection: String): String = query

  /** Execute the (pre-processed) query. `baseCollection` identifies the
    * collection the incremental query chain started from — pipeline-style
    * backends need it, SQL-style backends embed it in the query text.
    */
  def execute(query: String, baseCollection: String): LocalResult

  /** Result massaging after retrieval (e.g. strip internal attributes). */
  def postProcess(result: LocalResult): LocalResult = result

  /** Fast metadata count, if this backend maintains one *and* the query
    * path can use it (Neo4j: yes; MongoDB: exists but not available inside
    * an aggregation pipeline, per the paper — so its connector returns
    * None).
    */
  def countMetadata(collection: String): Option[Long] = None

  /** Run the full action path: preProcess -> execute -> postProcess. */
  final def run(query: String, baseCollection: String): LocalResult =
    postProcess(execute(preProcess(query, baseCollection), baseCollection))
}
