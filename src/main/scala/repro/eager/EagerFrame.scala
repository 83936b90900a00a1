package repro.eager

import java.nio.file.{Files, Path}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.json4s._
import org.json4s.jackson.JsonMethods.compact
import repro.core.{Frame, LocalResult, PFExpr}
import repro.core.PFExpr._
import repro.util.Json

/** Raised when an eager operation would exceed the configured memory
  * budget — the analogue of Pandas' out-of-memory failures on the M/L/XL
  * datasets in the paper.
  */
final class EagerOutOfMemoryException(msg: String) extends RuntimeException(msg)

/** Models single-machine RAM for the eager baseline. Loaded dataframes
  * count as *base* (long-lived) bytes; expression intermediates count as
  * *transient* bytes, reset between benchmark expressions (a notebook
  * session keeps its dataframes but garbage-collects per-expression
  * temporaries). Any allocation pushing base+transient over `maxBytes`
  * raises [[EagerOutOfMemoryException]].
  */
final class MemoryBudget(val maxBytes: Long) {
  private var baseBytes      = 0L
  private var transientBytes = 0L

  def used: Long = baseBytes + transientBytes

  private def check(extra: Long, what: String): Unit =
    if (used + extra > maxBytes)
      throw new EagerOutOfMemoryException(
        f"out of memory: $what needs $extra%,d B, ${used}%,d B in use, budget $maxBytes%,d B")

  def allocBase(bytes: Long, what: String): Unit      = { check(bytes, what); baseBytes += bytes }
  def allocTransient(bytes: Long, what: String): Unit = { check(bytes, what); transientBytes += bytes }
  def resetTransient(): Unit = transientBytes = 0
  def releaseBase(bytes: Long): Unit = baseBytes = math.max(0L, baseBytes - bytes)
}

object MemoryBudget {
  /** Effectively unlimited — for unit tests. */
  def unlimited: MemoryBudget = new MemoryBudget(Long.MaxValue)
}

/** EagerFrame: the Pandas stand-in — a driver-local, single-threaded,
  * eagerly-materializing dataframe with PolyFrame's verbs ([[Frame]]) over
  * `PFExpr`. Every transformation immediately computes its result, the
  * evaluation strategy the paper contrasts PolyFrame's laziness against.
  * As in Pandas, `df[attr]` is a view of its frame's column, and every
  * other transformation builds a copy and charges it to the memory budget.
  */
final class EagerFrame private (
    val columns: Vector[String],
    /** The rows this frame reads: its own, or a series view's frame's. */
    private val data: Array[Array[Any]],
    /** For a series view, the position of its column in `data`'s rows. */
    private val view: Option[Int],
    val budget: MemoryBudget,
) extends Frame[EagerFrame] {
  import EagerFrame._

  /** The estimated bytes of this frame's own rows; a view owns none. */
  lazy val sizeBytes: Long = if (view.isDefined) 0L else estimate(data)

  /** The rows, one value per column. */
  def rows: Array[Array[Any]] = data.map(row)

  /** A row of `data` as this frame's columns. */
  private def row(r: Array[Any]): Array[Any] = view.fold(r)(j => Array[Any](r(j)))

  private def idx(c: String): Int = {
    val i = columns.indexOf(c)
    require(i >= 0, s"no column '$c' in $columns")
    view.getOrElse(i)
  }

  /** The position in `data`'s rows of a series' one column. */
  private def series(verb: String): Int =
    if (columns.size == 1) idx(columns.head)
    else throw new IllegalStateException(s"$verb() requires a single-attribute series")

  /** A copy holding `rs`, charged to the budget as an intermediate: the
    * one place a transformation or `head` charges.
    */
  private def copied(cols: Vector[String], rs: Array[Array[Any]]): EagerFrame = {
    val f = new EagerFrame(cols, rs, None, budget)
    budget.allocTransient(f.sizeBytes, "intermediate dataframe")
    f
  }

  // ------------------------------------------------------- eager operations

  /** Column projection — copies the selected columns. */
  def select(attrs: String*): EagerFrame = {
    val is = attrs.map(idx)
    copied(attrs.toVector, data.map(r => is.map(r(_)).toArray))
  }

  /** `df[attr]` — a view of the column, uncopied and uncharged. */
  def apply(attr: String): EagerFrame = new EagerFrame(Vector(attr), data, Some(idx(attr)), budget)

  /** `df[cond]` — evaluates `cond` over every row, then materializes the
    * filtered copy.
    */
  def filter(cond: PFExpr): EagerFrame = {
    val m = mask(cond)
    copied(columns, data.indices.collect { case i if m(i) => row(data(i)) }.toArray)
  }

  /** The boolean Series `e` evaluates to. As in Pandas, each comparison,
    * `&`/`|`, `~` and `isna` materializes a full array, one n-byte charge.
    * A comparison with a missing value is false, except `ne`, which is true.
    */
  private def mask(e: PFExpr): Array[Boolean] = {
    val bits = e match {
      case Cmp(op, l, r) =>
        val (holds, a, b) = (comparisons.getOrElse(op, throw unsupported(e)), value(l), value(r))
        Array.tabulate(data.length)(i => if (a(i) == null || b(i) == null) op == "ne" else holds(order(a(i), b(i))))
      case Logical(op @ ("and" | "or"), l, r) =>
        val (a, b) = (mask(l), mask(r))
        Array.tabulate(data.length)(i => if (op == "and") a(i) && b(i) else a(i) || b(i))
      case Not(x)  => mask(x).map(!_)
      case IsNa(x) => val a = value(x); Array.tabulate(data.length)(a(_) == null)
      case _       => throw unsupported(e)
    }
    budget.allocTransient(data.length.toLong, "boolean mask")
    bits
  }

  /** A column or a literal, read in place: neither is charged. */
  private def value(e: PFExpr): Int => Any = e match {
    case Attr(a) => val j = idx(a); data(_)(j)
    case Lit(v)  => _ => v
    case _       => throw unsupported(e)
  }

  /** `s.map(fn)` for fn in upper/lower — computes the whole new column
    * before any head()/limit.
    */
  def map(fn: String): EagerFrame = {
    val j = series("map")
    val f: String => String = fn match {
      case "upper" => _.toUpperCase
      case "lower" => _.toLowerCase
      case _       => throw unsupported(Func(fn, Attr(columns.head)))
    }
    copied(columns, data.map(r => Array[Any](if (r(j) == null) null else f(r(j).toString))))
  }

  /** `sort_values(attr, ascending)` — a full sorted copy (Pandas sorts
    * before head), missing values last in both directions.
    */
  def sortValues(attr: String, ascending: Boolean): EagerFrame = {
    val j = idx(attr)
    val (present, missing) = data.partition(_(j) != null)
    val sorted = present.sortWith((a, b) => if (ascending) order(a(j), b(j)) < 0 else order(b(j), a(j)) < 0)
    copied(columns, (sorted ++ missing).map(row))
  }

  /** Inner hash equi-join (`pd.merge`). */
  def join(right: EagerFrame, leftOn: String, rightOn: String): EagerFrame = {
    val (li, ri) = (idx(leftOn), right.idx(rightOn))
    val table = right.data.filter(_(ri) != null).groupBy(_(ri))
    val out = data.filter(_(li) != null).flatMap(l =>
      table.getOrElse(l(li), Array.empty[Array[Any]]).map(r => row(l) ++ right.row(r)))
    copied(columns ++ right.columns, out)
  }

  /** `df.groupby(keys)`: `agg(fn)` aggregates the keys themselves. */
  def groupBy(keys: String*): Frame.Grouped[EagerFrame] = new Frame.Grouped[EagerFrame] {
    def agg(fn: String): EagerFrame              = aggregate(keys, keys.map(fn -> _))
    def agg(fn: String, attr: String): EagerFrame = aggregate(keys, Seq(fn -> attr))
  }

  /** One row per present key, keys sorted as Pandas sorts them, with the
    * keys and `<fn>_<attr>` columns as PolyFrame names them. `count` counts
    * the present values; `max` is the greatest present value, missing if
    * there is none.
    */
  private def aggregate(keys: Seq[String], items: Seq[(String, String)]): EagerFrame = {
    val aggs = items.map { case (fn, attr) =>
      val reduce: Array[Any] => Any = fn match {
        case "count" => _.length.toLong
        case "max"   => vs => if (vs.isEmpty) null else vs.reduce((m, v) => if (order(v, m) > 0) v else m)
        case _       => throw new UnsupportedOperationException(s"EagerFrame has no aggregate '$fn'")
      }
      val j = idx(attr)
      (rs: Array[Array[Any]]) => reduce(rs.map(_(j)).filter(_ != null))
    }
    val ks = keys.map(idx)
    val groups = data.filter(r => ks.forall(r(_) != null)).groupBy(r => ks.map(r(_))).toArray
      .sortWith((x, y) => x._1.lazyZip(y._1).map(order).find(_ != 0).exists(_ < 0))
    copied(keys.toVector ++ items.map { case (fn, attr) => s"${fn}_$attr" },
      groups.map { case (k, rs) => (k ++ aggs.map(_(rs))).toArray })
  }

  // ---------------------------------------------------------------- actions

  /** First n rows; Pandas' `head` copies them. */
  def head(n: Int): LocalResult = copied(columns, data.take(n).map(row)).collectAll()

  /** Every row, read in place: nothing is charged. */
  def collectAll(): LocalResult =
    LocalResult(columns, rows.toIndexedSeq.map(ArraySeq.unsafeWrapArray(_)))

  def count(): Long = data.length.toLong

  def max(): Double = present("max").max
  def min(): Double = present("min").min

  /** The present values of a series, as numbers. */
  private def present(verb: String): Iterator[Double] = {
    val j = series(verb)
    data.iterator.map(_(j)).filter(_ != null).map(toD)
  }
}

object EagerFrame {

  private val comparisons: Map[String, Int => Boolean] =
    Map("eq" -> (_ == 0), "ne" -> (_ != 0), "lt" -> (_ < 0), "le" -> (_ <= 0), "gt" -> (_ > 0), "ge" -> (_ >= 0))

  /** The order filters and sorts share: strings compare as text, every
    * other value as a number.
    */
  private def order(a: Any, b: Any): Int = (a, b) match {
    case (x: String, y: String) => x.compareTo(y)
    case _                      => java.lang.Double.compare(toD(a), toD(b))
  }
  private def toD(v: Any): Double = v match {
    case l: Long => l.toDouble
    case i: Int => i.toDouble
    case d: Double => d
    case s: String => s.toDouble
    case b: Boolean => if (b) 1d else 0d
    case other => other.toString.toDouble
  }
  private def unsupported(e: PFExpr) = new UnsupportedOperationException(s"EagerFrame cannot evaluate $e")

  /** Estimated JVM bytes for row data (boxed values, like Pandas' object
    * columns — the paper quotes McKinney's 5–10× RAM rule of thumb).
    */
  def estimate(rows: Array[Array[Any]]): Long = {
    var total = 0L
    rows.foreach { r =>
      total += 16 // row object overhead
      r.foreach {
        case null      => total += 8
        case s: String => total += 48 + 2L * s.length
        case _         => total += 16
      }
    }
    total
  }

  /** `pd.read_json(file_path)` — parse the whole JSON-lines file, infer
    * the schema (union of keys, in order of first appearance), and
    * materialize the full table as base (long-lived) memory.
    */
  def readJsonLines(path: Path, budget: MemoryBudget): EagerFrame = {
    val colIndex = mutable.LinkedHashMap.empty[String, Int]
    val parsed   = mutable.ArrayBuffer.empty[List[JField]]
    Files.lines(path).iterator().asScala.foreach { line =>
      if (line.trim.nonEmpty) {
        val fields = Json.parse(line) match {
          case JObject(fs) => fs
          case other       => throw new IllegalArgumentException(s"not a JSON object: ${compact(other)}")
        }
        fields.foreach { case (k, _) => if (!colIndex.contains(k)) colIndex(k) = colIndex.size }
        parsed += fields
      }
    }
    val cols = colIndex.keys.toVector
    val rows = parsed.map { fields =>
      val arr = new Array[Any](cols.size)
      fields.foreach { case (k, v) =>
        arr(colIndex(k)) = v match {
          case JNull      => null
          case JBool(b)   => b
          case JLong(n)   => n
          case JDouble(d) => d
          case JString(s) => s
          case other      => compact(other)
        }
      }
      arr
    }.toArray
    // The parse intermediates (one boxed object tree per record — the
    // `parsed` buffer above) are live while the table is built: charge
    // them as transient, which is what makes read_json need ~2× the
    // table's RAM (cf. McKinney's 5-10× rule quoted in the paper).
    budget.allocTransient(estimate(rows), "json parse buffers")
    EagerFrame(cols, rows, budget)
  }

  /** A loaded dataframe of `rows`, charged as base (long-lived) memory. */
  def apply(columns: Seq[String], rows: Array[Array[Any]], budget: MemoryBudget): EagerFrame = {
    val f = new EagerFrame(columns.toVector, rows, None, budget)
    budget.allocBase(f.sizeBytes, "dataframe")
    f
  }
}
