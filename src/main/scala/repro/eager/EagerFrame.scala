package repro.eager

import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.json4s._
import org.json4s.jackson.JsonMethods.compact
import repro.core.PFExpr
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
  * eagerly-materializing dataframe with PolyFrame's verbs over `PFExpr`.
  * Every operation immediately computes and copies its result (charging
  * the memory budget), exactly the evaluation strategy the paper
  * contrasts PolyFrame's laziness against.
  */
final class EagerFrame(
    val columns: Vector[String],
    val rows: Array[Array[Any]],
    val budget: MemoryBudget,
    chargeAs: String = "transient",
) {
  import EagerFrame._
  val sizeBytes: Long = estimate(rows)
  if (chargeAs == "base") budget.allocBase(sizeBytes, "dataframe")
  else budget.allocTransient(sizeBytes, "intermediate dataframe")

  def length: Long = rows.length.toLong
  private def idx(c: String): Int = {
    val i = columns.indexOf(c)
    require(i >= 0, s"no column '$c' in $columns")
    i
  }

  def column(c: String): Array[Any] = { val i = idx(c); rows.map(_(i)) }

  // ------------------------------------------------------- eager operations

  /** Column projection — copies the selected columns. */
  def select(cols: String*): EagerFrame = {
    val is = cols.map(idx)
    new EagerFrame(cols.toVector, rows.map(r => is.map(r(_)).toArray), budget)
  }

  /** `df[cond]` — evaluates `cond` over every row, then materializes the
    * filtered copy.
    */
  def filter(cond: PFExpr): EagerFrame = {
    val m = mask(cond)
    new EagerFrame(columns, rows.indices.collect { case i if m(i) => rows(i) }.toArray, budget)
  }

  /** The boolean Series `e` evaluates to. As in Pandas, each comparison,
    * `&`/`|`, `~` and `isna` materializes a full array, one n-byte charge.
    * A comparison with a missing value is false, except `ne`, which is true.
    */
  private def mask(e: PFExpr): Array[Boolean] = {
    val bits = e match {
      case Cmp(op, l, r) =>
        val (holds, a, b) = (comparisons.getOrElse(op, throw unsupported(e)), value(l), value(r))
        Array.tabulate(rows.length)(i => if (a(i) == null || b(i) == null) op == "ne" else holds(order(a(i), b(i))))
      case Logical(op @ ("and" | "or"), l, r) =>
        val (a, b) = (mask(l), mask(r))
        Array.tabulate(rows.length)(i => if (op == "and") a(i) && b(i) else a(i) || b(i))
      case Not(x)  => mask(x).map(!_)
      case IsNa(x) => val a = value(x); Array.tabulate(rows.length)(a(_) == null)
      case _       => throw unsupported(e)
    }
    budget.allocTransient(rows.length.toLong, "boolean mask")
    bits
  }

  /** A column or a literal, read in place: neither is charged. */
  private def value(e: PFExpr): Int => Any = e match {
    case Attr(a) => val j = idx(a); rows(_)(j)
    case Lit(v)  => _ => v
    case _       => throw unsupported(e)
  }

  def head(n: Int = 5): EagerFrame = new EagerFrame(columns, rows.take(n), budget)

  /** `df[attr].map(fn)` for fn in upper/lower — computes the whole new
    * column before any head()/limit.
    */
  def map(attr: String, fn: String): EagerFrame = {
    val f: String => String = fn match {
      case "upper" => _.toUpperCase
      case "lower" => _.toLowerCase
      case _       => throw unsupported(Func(fn, Attr(attr)))
    }
    val i = idx(attr)
    new EagerFrame(Vector(attr), rows.map(r => Array[Any](if (r(i) == null) null else f(r(i).toString))), budget)
  }

  def max(c: String): Double = { val i = idx(c); rows.iterator.map(_(i)).filter(_ != null).map(toD).max }
  def min(c: String): Double = { val i = idx(c); rows.iterator.map(_(i)).filter(_ != null).map(toD).min }

  /** `df.groupby(key)[attr].agg(fn)` for fn in count/max: one row per
    * present key, keys sorted as Pandas sorts them, with columns `key` and
    * `<fn>_<attr>` as PolyFrame names them. `count` counts the present
    * values; `max` is the greatest present value, missing if there is none.
    */
  def groupByAgg(key: String, fn: String, attr: String): EagerFrame = {
    val agg: Array[Any] => Any = fn match {
      case "count" => _.length.toLong
      case "max"   => vs => if (vs.isEmpty) null else vs.reduce((m, v) => if (order(v, m) > 0) v else m)
      case _       => throw new UnsupportedOperationException(s"EagerFrame has no aggregate '$fn'")
    }
    val (k, a) = (idx(key), idx(attr))
    val groups = rows.filter(_(k) != null).groupBy(_(k)).toArray.sortWith((x, y) => order(x._1, y._1) < 0)
    new EagerFrame(Vector(key, s"${fn}_$attr"), groups.map { case (g, rs) => Array[Any](g, agg(rs.map(_(a)).filter(_ != null))) }, budget)
  }

  /** `sort_values(attr, ascending)` — a full sorted copy (Pandas sorts
    * before head), missing values last in both directions.
    */
  def sortValues(attr: String, ascending: Boolean = true): EagerFrame = {
    val i = idx(attr)
    val (present, missing) = rows.partition(_(i) != null)
    val sorted = present.sortWith((a, b) => if (ascending) order(a(i), b(i)) < 0 else order(b(i), a(i)) < 0)
    new EagerFrame(columns, sorted ++ missing, budget)
  }

  /** Inner hash equi-join (`pd.merge`). */
  def merge(other: EagerFrame, leftOn: String, rightOn: String): EagerFrame = {
    val (li, ri) = (idx(leftOn), other.idx(rightOn))
    val table = other.rows.filter(_(ri) != null).groupBy(_(ri))
    val out   = rows.filter(_(li) != null).flatMap(l => table.getOrElse(l(li), Array.empty[Array[Any]]).map(l ++ _))
    new EagerFrame(columns ++ other.columns, out, budget)
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
    new EagerFrame(cols, rows, budget, chargeAs = "base")
  }
}
