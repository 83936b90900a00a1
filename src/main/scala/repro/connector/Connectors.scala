package repro.connector

import java.sql.DriverManager
import scala.collection.mutable
import scala.util.Using
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.types._
import org.duckdb.DuckDBConnection
import repro.core.{DatabaseConnector, LanguageConfig, LocalResult}
import repro.core.languages.Languages
import repro.cypher.MiniCypher
import repro.mongo.MiniMongo
import repro.util.{JArr, Json}

/** A connector whose backend runs on Spark: it stores each collection in
  * the layout [[SparkBacked.stored]] gives it, turns the shipped query into
  * an un-collected DataFrame over those collections (`plan`), and every
  * action collects that plan the same way. Tests call `plan` to inspect the
  * plan the backend runs (e.g. that Catalyst collapses the per-operation
  * nesting).
  */
trait SparkBacked extends DatabaseConnector {
  protected val collections = mutable.Map.empty[String, DataFrame]

  override def initialize(namespace: String, collection: String, data: DataFrame): Unit =
    collections(collection) = SparkBacked.stored(data)

  /** The DataFrame for an already pre-processed query. */
  def plan(shipped: String, baseCollection: String): DataFrame

  final override def execute(query: String, baseCollection: String): LocalResult =
    LocalResult.fromDF(plan(query, baseCollection))
}

object SparkBacked {

  /** `data` in as many partitions as Spark splits a stored table of its
    * size into (`FilePartition.maxSplitBytes`): a split of
    * `min(maxPartitionBytes, max(openCostInBytes, size / minPartitionNum))`
    * bytes, `size` being the optimizer's estimate. A collection with more
    * partitions than that is coalesced, which is narrow: no shuffle, and it
    * reads `data`'s cache. Any other is kept as it is. A collection of one
    * partition lets an aggregate, group-by or join plan no exchange, so
    * AQE runs the action as one job.
    */
  def stored(data: DataFrame): DataFrame = {
    val conf  = data.sparkSession.sessionState.conf
    val size  = data.queryExecution.optimizedPlan.stats.sizeInBytes
    val cores = conf.filesMinPartitionNum
      .orElse(conf.getConf(SQLConf.LEAF_NODE_DEFAULT_PARALLELISM))
      .getOrElse(data.sparkSession.sparkContext.defaultParallelism)
    val split = BigInt(conf.filesMaxPartitionBytes).min(BigInt(conf.filesOpenCostInBytes).max(size / cores))
    val parts = ((size + split - 1) / split).max(1)
    if (parts < data.queryExecution.toRdd.getNumPartitions) data.coalesce(parts.toInt) else data
  }
}

/** Spark SQL connector — the primary retarget of this reproduction.
  * Collections are registered as temp views; generated nested SQL text is
  * executed by Catalyst via `spark.sql`, which collapses the per-operation
  * subqueries during optimization (the paper's "efficient query
  * optimizer" requirement).
  */
final class SparkSqlConnector(val spark: SparkSession,
                              override val lang: LanguageConfig = Languages.sparkSql)
    extends SparkBacked {
  override def name = "PolyFrame-SparkSQL"

  override def initialize(namespace: String, collection: String, data: DataFrame): Unit = {
    super.initialize(namespace, collection, data)
    collections(collection).createOrReplaceTempView(collection)
  }

  override def plan(shipped: String, baseCollection: String): DataFrame = spark.sql(shipped)
}

/** DuckDB connector — executes the PostgreSQL-flavoured SQL rules on an
  * in-process DuckDB (the stand-in for PostgreSQL; `threads` stands in
  * for Greenplum parallelism). Namespaces map to DuckDB schemas, so
  * `SELECT * FROM Test.Users` works as generated.
  */
final class DuckDbConnector(threads: Int = 1,
                            override val lang: LanguageConfig = Languages.sql)
    extends DatabaseConnector with AutoCloseable {
  override def name = "PolyFrame-DuckDB"
  Class.forName("org.duckdb.DuckDBDriver")
  val conn: java.sql.Connection = DriverManager.getConnection("jdbc:duckdb:")
  update(s"SET threads TO $threads")

  private def update(sql: String): Unit = Using.resource(conn.createStatement())(_.execute(sql))

  private def sqlType(dt: DataType): String = dt match {
    case LongType            => "BIGINT"
    case IntegerType         => "INTEGER"
    case ShortType           => "SMALLINT"
    case DoubleType          => "DOUBLE"
    case FloatType           => "FLOAT"
    case BooleanType         => "BOOLEAN"
    case _: DecimalType      => "DOUBLE"
    case DateType            => "DATE"
    case _                   => "VARCHAR"
  }

  /** The one way a table gets into DuckDB: a typed `CREATE TABLE` filled
    * row by row through DuckDB's Appender from the collected rows. A value
    * goes in as its JVM type; a decimal as the `DOUBLE` its column has, and
    * a date or any other value as its text, which DuckDB casts to the
    * column's type. `append(null: String)` appends NULL.
    */
  override def initialize(namespace: String, collection: String, data: DataFrame): Unit = {
    val table = s"""$namespace."$collection""""
    val cols  = data.schema.fields.map(f => s""""${f.name}" ${sqlType(f.dataType)}""").mkString(", ")
    update(s"CREATE SCHEMA IF NOT EXISTS $namespace")
    update(s"DROP TABLE IF EXISTS $table")
    update(s"CREATE TABLE $table ($cols)")
    val rows = data.collect()
    Using.resource(conn.unwrap(classOf[DuckDBConnection]).createAppender(namespace, collection)) { app =>
      rows.foreach { r =>
        app.beginRow()
        r.toSeq.foreach {
          case null                    => app.append(null: String)
          case v: Long                 => app.append(v)
          case v: Int                  => app.append(v)
          case v: Short                => app.append(v)
          case v: Double               => app.append(v)
          case v: Float                => app.append(v)
          case v: Boolean              => app.append(v)
          case v: java.math.BigDecimal => app.append(v.doubleValue)
          case v                       => app.append(v.toString)
        }
        app.endRow()
      }
    }
  }

  override def execute(query: String, baseCollection: String): LocalResult =
    Using.resource(conn.createStatement()) { st =>
      Using.resource(st.executeQuery(query)) { rs =>
        val meta = rs.getMetaData
        val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
        val rows = Iterator.continually(rs).takeWhile(_.next())
          .map(r => cols.indices.map(i => LocalResult.normalize(r.getObject(i + 1))))
          .toVector
        LocalResult(cols, rows)
      }
    }

  override def close(): Unit = conn.close()
}

/** MongoDB connector — pre-processing wraps the comma-separated pipeline
  * stages into an `aggregate([...])` JSON array which MiniMongo executes
  * against the base collection. Per the paper, MongoDB's fast metadata
  * count is NOT available through the aggregation pipeline, so
  * `countMetadata` stays None.
  */
final class MongoConnector(val spark: SparkSession,
                           override val lang: LanguageConfig = Languages.mongo)
    extends SparkBacked {
  override def name = "PolyFrame-MiniMongo"

  override def preProcess(query: String, baseCollection: String): String = s"[ $query ]"

  override def plan(shipped: String, baseCollection: String): DataFrame = Json.parse(shipped) match {
    case pipeline: JArr => MiniMongo.run(collections(baseCollection), pipeline, collections(_))
    case _ => throw MiniMongo.MongoError(s"a pipeline must be a JSON array: $shipped")
  }
}

/** Cypher/Neo4j connector — MiniCypher executes the generated Cypher on
  * Spark. Like Neo4j, it maintains a nodes-count metadata store per label
  * (filled at load time), which serves `len(df)` on an untransformed
  * frame instantly — the paper's expression-1 fast path.
  */
final class CypherConnector(val spark: SparkSession,
                            override val lang: LanguageConfig = Languages.cypher)
    extends SparkBacked {
  override def name = "PolyFrame-MiniCypher"
  private val counts = mutable.Map.empty[String, Long]

  override def initialize(namespace: String, collection: String, data: DataFrame): Unit = {
    super.initialize(namespace, collection, data)
    counts(collection) = collections(collection).count() // Neo4j maintains its counts store at write time
  }

  override def plan(shipped: String, baseCollection: String): DataFrame =
    MiniCypher.run(shipped, collections(_))

  override def countMetadata(collection: String): Option[Long] = counts.get(collection)
}
