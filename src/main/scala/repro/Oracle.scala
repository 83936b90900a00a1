package repro

import scala.util.Using
import org.apache.spark.sql.DataFrame
import repro.connector.DuckDbConnector
import repro.core.LocalResult

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(got, sql, tables)`` loads ``tables`` into a fresh
  * in-process DuckDB (typed, through ``DuckDbConnector.initialize``), runs
  * the hand-written reference ``sql`` there and requires its result to
  * equal ``got`` in ``LocalResult.canonicalRows`` form. This catches wrong
  * results from a rewritten plan or a custom operator — "it ran" is not
  * "it is correct".
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  def assertEquivalent(got: LocalResult, sql: String, tables: (String, DataFrame)*): Unit =
    Using.resource(new DuckDbConnector()) { duck =>
      // Tables land in DuckDB's default schema, so ``sql`` names them bare.
      tables.foreach { case (name, df) => duck.initialize("main", name, df) }
      val exp = duck.execute(sql, "")
      require(
        exp.columns.map(_.toLowerCase).toSet == got.columns.map(_.toLowerCase).toSet,
        s"column mismatch: got=${got.columns.sorted} duckdb=${exp.columns.sorted} — alias every output column"
      )
      val (g, e) = (got.canonicalRows, exp.canonicalRows)
      require(g == e,
        s"result mismatch (${g.size} vs ${e.size} rows):\n" +
        s"  first got-only:  ${g.diff(e).take(3)}\n" +
        s"  first duck-only: ${e.diff(g).take(3)}"
      )
    }
}
