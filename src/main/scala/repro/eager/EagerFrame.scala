package repro.eager

import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.json4s._
import org.json4s.jackson.JsonMethods.compact
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

/** A boolean mask — what an eagerly-evaluated Pandas comparison
  * materializes (`df['ten'] == x` builds the full boolean Series before
  * any filtering happens).
  */
final class EagerMask(val bits: Array[Boolean], budget: MemoryBudget) {
  budget.allocTransient(bits.length.toLong, "boolean mask")
  def &&(o: EagerMask): EagerMask = {
    require(bits.length == o.bits.length, "mask length mismatch")
    new EagerMask(Array.tabulate(bits.length)(i => bits(i) && o.bits(i)), budget)
  }
  def ||(o: EagerMask): EagerMask =
    new EagerMask(Array.tabulate(bits.length)(i => bits(i) || o.bits(i)), budget)
  def count: Long = bits.count(identity).toLong
}

/** EagerFrame: the Pandas stand-in — a driver-local, single-threaded,
  * eagerly-materializing dataframe. Every operation immediately computes
  * and copies its result (charging the memory budget), exactly the
  * evaluation strategy the paper contrasts PolyFrame's laziness against.
  */
final class EagerFrame(
    val columns: Vector[String],
    val rows: Array[Array[Any]],
    val budget: MemoryBudget,
    chargeAs: String = "transient",
) {
  val sizeBytes: Long = EagerFrame.estimate(rows)
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

  def maskEq(c: String, v: Any): EagerMask = mask(c)(x => x != null && valueEq(x, v))
  def maskGe(c: String, v: Double): EagerMask = mask(c)(x => x != null && toD(x) >= v)
  def maskLe(c: String, v: Double): EagerMask = mask(c)(x => x != null && toD(x) <= v)
  def maskIsNa(c: String): EagerMask = mask(c)(_ == null)

  private def mask(c: String)(p: Any => Boolean): EagerMask = {
    val i = idx(c)
    new EagerMask(rows.map(r => p(r(i))), budget)
  }

  /** `df[mask]` — materializes the filtered copy. */
  def filter(m: EagerMask): EagerFrame =
    new EagerFrame(columns, rows.zip(m.bits).collect { case (r, true) => r }, budget)

  def head(n: Int = 5): EagerFrame = new EagerFrame(columns, rows.take(n), budget)

  /** Eager element-wise map over one column (`df['s'].map(str.upper)`) —
    * computes the whole new column before any head()/limit.
    */
  def mapUpper(c: String): EagerFrame = {
    val i = idx(c)
    val out = rows.map { r =>
      val v = r(i)
      Array[Any](if (v == null) null else v.toString.toUpperCase)
    }
    new EagerFrame(Vector(c), out, budget)
  }

  def max(c: String): Double = { val i = idx(c); rows.iterator.map(_(i)).filter(_ != null).map(toD).max }
  def min(c: String): Double = { val i = idx(c); rows.iterator.map(_(i)).filter(_ != null).map(toD).min }

  def groupByCount(key: String): EagerFrame = {
    val i = idx(key)
    val m = mutable.LinkedHashMap.empty[Any, Long]
    rows.foreach { r => val k = r(i); if (k != null) m(k) = m.getOrElse(k, 0L) + 1L }
    new EagerFrame(Vector(key, s"count_$key"), m.map { case (k, n) => Array[Any](k, n) }.toArray, budget)
  }

  def groupByMax(key: String, attr: String): EagerFrame = {
    val (i, j) = (idx(key), idx(attr))
    val m = mutable.LinkedHashMap.empty[Any, Double]
    rows.foreach { r =>
      val k = r(i); val v = r(j)
      if (k != null && v != null) {
        val d = toD(v)
        m(k) = math.max(m.getOrElse(k, Double.NegativeInfinity), d)
      }
    }
    new EagerFrame(Vector(key, s"max_$attr"), m.map { case (k, v) => Array[Any](k, v.toLong) }.toArray, budget)
  }

  /** Full sorted copy (Pandas sort_values materializes before head):
    * strings by their text, other values as numbers, missing values last.
    */
  def sortDesc(c: String): EagerFrame = {
    val i = idx(c)
    val (present, missing) = rows.partition(_(i) != null)
    val sorted = present.sortWith((a, b) => (a(i), b(i)) match {
      case (x: String, y: String) => x > y
      case (x, y)                 => toD(x) > toD(y)
    })
    new EagerFrame(columns, sorted ++ missing, budget)
  }

  /** Inner hash equi-join (`pd.merge`). */
  def merge(other: EagerFrame, leftOn: String, rightOn: String): EagerFrame = {
    val li = idx(leftOn); val ri = other.idx(rightOn)
    val table = mutable.HashMap.empty[Any, mutable.ArrayBuffer[Array[Any]]]
    other.rows.foreach { r =>
      val k = r(ri)
      if (k != null) table.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += r
    }
    val out = mutable.ArrayBuffer.empty[Array[Any]]
    rows.foreach { l =>
      val k = l(li)
      if (k != null) table.get(k).foreach(_.foreach(r => out += (l ++ r)))
    }
    new EagerFrame(columns ++ other.columns, out.toArray, budget)
  }

  private def valueEq(a: Any, b: Any): Boolean = (a, b) match {
    case (x: String, y: String) => x == y
    case (x, y) => toD(x) == toD(y)
  }
  private def toD(v: Any): Double = v match {
    case l: Long => l.toDouble
    case i: Int => i.toDouble
    case d: Double => d
    case s: String => s.toDouble
    case b: Boolean => if (b) 1d else 0d
    case other => other.toString.toDouble
  }
}

object EagerFrame {

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
