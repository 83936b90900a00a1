package pfbench

import repro.core.LocalResult

/** Wisconsin facts the reference needs, derived from the generator's
  * specification (not from its code): every attribute is a function of
  * `unique1`/`unique2`, and `tenPercent` is missing when `unique1 % 10 == 0`.
  */
object Wisconsin {
  val columns: Vector[String] = Vector(
    "unique1", "unique2", "two", "four", "ten", "twenty", "onePercent",
    "tenPercent", "twentyPercent", "fiftyPercent", "unique3",
    "evenOnePercent", "oddOnePercent", "stringu1", "stringu2", "string4")

  /** How many of 0 until n are congruent to r modulo m. */
  def countMod(n: Long, m: Long, r: Long): Long = if (n > r) (n - 1 - r) / m + 1 else 0L

  def stringOf(v: Long): String = {
    val letters = new Array[Char](7)
    var x = v
    for (i <- 6 to 0 by -1) { letters(i) = ('A' + (x % 26)).toChar; x /= 26 }
    new String(letters) + ("x" * 45)
  }

  def expectedRow(u1: Long, u2: Long): Vector[Any] = Vector(
    u1, u2, u1 % 2, u1 % 4, u1 % 10, u1 % 20, u1 % 100,
    if (u1 % 10 == 0) null else u1 % 10, u1 % 5, u1 % 2, u1,
    (u1 % 100) * 2, (u1 % 100) * 2 + 1, stringOf(u1), stringOf(u2), "AHOV".charAt((u2 % 4).toInt).toString)

  def isRow(r: Seq[Any], n: Long): Boolean = (r.headOption, r.lift(1)) match {
    case (Some(u1: Long), Some(u2: Long)) =>
      u1 >= 0 && u1 < n && u2 >= 0 && u2 < n && r == expectedRow(u1, u2)
    case _ => false
  }

  def isUpperString(v: Any, n: Long): Boolean = v match {
    case s: String if s.length == 52 && s.drop(7).forall(_ == 'X') && s.take(7).forall(c => c >= 'A' && c <= 'Z') =>
      s.take(7).foldLeft(0L)((acc, c) => acc * 26 + (c - 'A')) < n
    case _ => false
  }
}

/** Analytic checks of Table III results. */
object Checks {
  type Check = LocalResult => Option[String]

  private def scalarOf(r: LocalResult): Option[Any] =
    if (r.rows.size == 1 && r.rows.head.size == 1) Some(r.rows.head.head) else None

  def count(expected: Long): Check = r => scalarOf(r) match {
    case Some(v: Long) if v == expected => None
    case other => Some(s"count ${other.getOrElse(r)} != $expected")
  }

  def scalar(name: String, expected: Double): Check = r => scalarOf(r).map(LocalResult.normalize) match {
    case Some(v: Long) if v.toDouble == expected   => None
    case Some(v: Double) if v == expected          => None
    case other => Some(s"$name ${other.getOrElse(r)} != $expected")
  }

  private def columnsAre(r: LocalResult, cols: Seq[String]): Option[String] =
    if (r.columns == cols) None else Some(s"columns ${r.columns.mkString(",")} != ${cols.mkString(",")}")

  def rows(cols: Seq[String], n: Int)(valid: Seq[Any] => Boolean): Check = r =>
    columnsAre(r, cols)
      .orElse(if (r.size == n) None else Some(s"${r.size} rows != $n"))
      .orElse(r.rows.find(!valid(_)).map(bad => s"row not in reference: ${bad.mkString(",")}"))

  def rowSet(cols: Seq[String], expected: Seq[Seq[Any]]): Check = r =>
    columnsAre(r, cols).orElse(
      if (Results.multiset(r.rows) == Results.multiset(expected)) None
      else Some(s"${r.size} groups differ from the ${expected.size} expected"))

  /** Whether `r` holds the expected rows with its columns in another order. */
  def reordered(cols: Seq[String], expected: Seq[Seq[Any]]): LocalResult => Boolean = r =>
    r.columns != cols && r.columns.sorted == cols.sorted && {
      val is = cols.map(r.columns.indexOf)
      rowSet(cols, expected)(LocalResult(cols, r.rows.map(row => is.map(row)))).isEmpty
    }

  def sortedWisconsin(n: Long, keys: Seq[Long]): Check = r =>
    rows(Wisconsin.columns, keys.size)(Wisconsin.isRow(_, n))(r).orElse(
      if (r.rows.map(_.head) == keys) None
      else Some(s"unique1 order ${r.rows.map(_.head).mkString(",")} != ${keys.mkString(",")}"))
}

/** Plain-Scala evaluation of a deep_chain frame with Pandas semantics:
  * comparisons with a missing value are false except `!=`, which is true;
  * sorts are stable with missing values last; `head` keeps row order.
  * `sortKey` is the last sort applied, which fixes the order of the rows.
  */
final case class RefFrame(columns: Vector[String], rows: Vector[Vector[Any]],
                          sortKey: Option[(String, Boolean)]) {
  private def idx(attr: String): Int = {
    val i = columns.indexOf(attr)
    require(i >= 0, s"no column $attr in ${columns.mkString(",")}")
    i
  }

  def filter(attr: String, cmp: String, v: Any): RefFrame = {
    val i = idx(attr)
    val keep: Any => Boolean = x =>
      if (x == null) cmp == "ne"
      else {
        val c = RefFrame.compare(x, v)
        cmp match {
          case "ne" => c != 0
          case "ge" => c >= 0
          case "le" => c <= 0
          case "eq" => c == 0
        }
      }
    copy(rows = rows.filter(r => keep(r(i))))
  }

  def select(cols: Vector[String]): RefFrame = {
    val is = cols.map(idx)
    copy(columns = cols, rows = rows.map(r => is.map(r)))
  }

  /** Rows whose `attr` is present. */
  def dropMissing(attr: String): RefFrame = {
    val i = idx(attr)
    copy(rows = rows.filter(_(i) != null))
  }

  /** `missingFirst` gives SQL's ascending order instead of Pandas'. */
  def sort(attr: String, asc: Boolean, missingFirst: Boolean = false): RefFrame = {
    val i = idx(attr)
    val (present, missing) = rows.partition(_(i) != null)
    val ord: Ordering[Vector[Any]] = (a, b) => RefFrame.compare(a(i), b(i))
    val sorted = present.sorted(if (asc) ord else ord.reverse)
    copy(rows = if (missingFirst) missing ++ sorted else sorted ++ missing, sortKey = Some(attr -> asc))
  }

  def map(fn: String): RefFrame = {
    require(columns.size == 1, "map needs a series")
    val f: String => String = if (fn == "upper") _.toUpperCase else _.toLowerCase
    copy(rows = rows.map(r => Vector(r(0) match { case s: String => f(s); case o => o })))
  }

  def check(kind: Kind): LocalResult => Option[String] = kind match {
    case Kind.Count => Checks.count(rows.size.toLong)
    case Kind.Head(n) =>
      val expectSize = math.min(n, rows.size)
      lazy val pool = Results.multiset(rows)
      val keyIdx = sortKey.map(_._1).map(columns.indexOf).filter(_ >= 0)
      val expectKeys = keyIdx.map(k => rows.take(n).map(_(k)))
      r => {
        if (r.columns != columns) Some(s"columns ${r.columns.mkString(",")} != ${columns.mkString(",")}")
        else if (r.size != expectSize) Some(s"${r.size} rows != $expectSize")
        else {
          val got = Results.multiset(r.rows)
          got.find { case (row, c) => pool.getOrElse(row, 0) < c } match {
            case Some((row, _)) => Some(s"row not in reference: ${row.mkString(",")}")
            case None =>
              (keyIdx, expectKeys) match {
                case (Some(k), Some(keys)) if r.rows.map(_(k)) != keys =>
                  Some(s"order on ${sortKey.get._1}: ${r.rows.take(5).map(_(k)).mkString(",")}... != " +
                    s"${keys.take(5).mkString(",")}...")
                case _ => None
              }
          }
        }
      }
    case other => throw new IllegalArgumentException(s"deep_chain has no ${other.label} action")
  }
}

object RefFrame {
  def compare(a: Any, b: Any): Int = (a, b) match {
    case (x: Long, y: Long)     => java.lang.Long.compare(x, y)
    case (x: String, y: String) => x.compareTo(y)
    case _ => throw new IllegalArgumentException(s"cannot compare $a with $b")
  }
}
