package pfbench

import scala.util.Random
import repro.core.{LocalResult, PolyFrame}
import repro.core.dsl._

/** The two base frames every program starts from (`df` and `df2` in the
  * paper's Table III, both over the same Wisconsin rows).
  */
final case class Frames(df: PolyFrame, df2: PolyFrame)

/** What an action asks the backend for. */
sealed trait Kind { def label: String }
object Kind {
  case object Count extends Kind { val label = "count" }
  final case class Head(n: Int) extends Kind { def label = s"head($n)" }
  case object Collect extends Kind { val label = "collect" }
  final case class Agg(fn: String) extends Kind { def label = fn }
}

/** PolyFrame transformation calls; `calls` is how many of them `f` makes,
  * which is how many `$subquery` nestings it adds.
  */
final case class Op(label: String, f: (PolyFrame, Frames) => PolyFrame, calls: Int = 1)

/** A known-defect class an action probes. `symptom` holds when a wrong
  * result is exactly what that defect gives (the reference evaluated with
  * the defect's semantics), so no other wrong result passes as known.
  */
final case class Defect(name: String, symptom: LocalResult => Boolean)

/** One action of a program. `branch` is applied to the session's current
  * frame without replacing it (a notebook cell like `len(df[df.x != 1])`);
  * `check` returns None when the result matches the reference. `defect`
  * is the known-defect class the action probes, if any.
  */
final case class Action(id: String, kind: Kind, branch: Option[Op],
                        check: LocalResult => Option[String],
                        defect: Option[Defect] = None)

sealed trait Event
final case class Step(op: Op) extends Event
final case class Act(action: Action) extends Event

/** A program starts from `df` and runs its events in order. */
final case class Program(events: Vector[Event]) {
  val actions: Vector[Action] = events.collect { case Act(a) => a }
}

/** Results are compared as LocalResults; scalar actions are wrapped. */
object Results {
  def scalar(name: String, v: Any): LocalResult = LocalResult(Seq(name), Seq(Seq(v)))

  /** The action as a user calls it, through the public PolyFrame API. */
  def perform(pf: PolyFrame, kind: Kind): LocalResult = kind match {
    case Kind.Count   => scalar("count", pf.count())
    case Kind.Head(n) => pf.head(n)
    case Kind.Collect => pf.collectAll()
    case Kind.Agg(fn) => scalar(fn, pf.aggValue(fn).scalarDouble)
  }

  /** Whether two runs of one action agree. Scalars must be equal and a
    * collected group-by equal up to row order. `head` may pick other rows
    * when sort keys tie or no sort is given, so two heads agree when they
    * have the same columns and size and the reference check treats them
    * alike.
    */
  def same(a: Action, x: LocalResult, y: LocalResult): Boolean = a.kind match {
    case Kind.Collect => x.columns == y.columns && multiset(x.rows) == multiset(y.rows)
    case Kind.Head(_) => x == y ||
      (x.columns == y.columns && x.size == y.size && a.check(x).isEmpty == a.check(y).isEmpty)
    case _ => x == y
  }

  def multiset(rows: Seq[Seq[Any]]): Map[Seq[Any], Int] =
    rows.groupMapReduce(identity)(_ => 1)(_ + _)
}

/** Table III of the paper with the pinned parameters of
  * `repro.bench.Benchmark`, checked against analytically known answers.
  */
object Table3 {
  import repro.bench.Benchmark._

  def program(n: Long): Program = {
    def act(i: Int, kind: Kind, op: Op, check: LocalResult => Option[String]) =
      Act(Action(s"expr$i", kind, Some(op), check))
    def grouped(i: Int, op: Op, cols: Seq[String], expected: Seq[Seq[Any]]) =
      Act(Action(s"expr$i", Kind.Collect, Some(op), Checks.rowSet(cols, expected),
        Some(Defect(KnownDefects.GroupKeyOrder, Checks.reordered(cols, expected)))))
    def op(label: String, calls: Int = 1)(f: PolyFrame => PolyFrame) = Op(label, (pf, _) => f(pf), calls)
    val base = op("df", calls = 0)(identity)
    val events = Vector[Event](
      act(1, Kind.Count, base, Checks.count(n)),
      act(2, Kind.Head(5), op("select(two,four)")(_.select("two", "four")),
        Checks.rows(Seq("two", "four"), 5) { r => r(1) match {
          case f: Long => r(0) == f % 2
          case _       => false
        } }),
      act(3, Kind.Count,
        op("filter(ten,twentyPercent,two)")(_.filter(col("ten") === X3 && col("twentyPercent") === Y3 && col("two") === Z3)),
        Checks.count(Wisconsin.countMod(n, 10, 4))),
      grouped(4, op("groupBy(oddOnePercent).agg(count)")(_.groupBy("oddOnePercent").agg("count")),
        Seq("oddOnePercent", "count_oddOnePercent"),
        (0 until 100).map(r => Seq[Any](2L * r + 1, Wisconsin.countMod(n, 100, r))).filter(_(1) != 0L)),
      act(5, Kind.Head(5), op("stringu1.map(upper)", calls = 2)(_("stringu1").map("upper")),
        Checks.rows(Seq("stringu1"), 5)(r => Wisconsin.isUpperString(r(0), n))),
      act(6, Kind.Agg("max"), op("unique1")(_("unique1")), Checks.scalar("max", (n - 1).toDouble)),
      act(7, Kind.Agg("min"), op("unique1")(_("unique1")), Checks.scalar("min", 0.0)),
      grouped(8, op("groupBy(twenty).agg(max,four)")(_.groupBy("twenty").agg("max", "four")),
        Seq("twenty", "max_four"), (0 until 20).filter(_ < n).map(t => Seq[Any](t.toLong, (t % 4).toLong))),
      act(9, Kind.Head(5), op("sortValues(unique1,desc)")(_.sortValues("unique1", ascending = false)),
        Checks.sortedWisconsin(n, (0L until 5L).map(n - 1 - _).filter(_ >= 0))),
      act(10, Kind.Head(5), op("filter(ten)")(_.filter(col("ten") === X10)),
        Checks.rows(Wisconsin.columns, 5)(r => Wisconsin.isRow(r, n) && r(4) == X10.toLong)),
      act(11, Kind.Count, op("filter(onePercent range)")(_.filter(col("onePercent") >= X11 && col("onePercent") <= Y11)),
        Checks.count((X11 to Y11).map(r => Wisconsin.countMod(n, 100, r)).sum)),
      act(12, Kind.Count, Op("join(df2,unique1)", (pf, fr) => pf.join(fr.df2, "unique1", "unique1")),
        Checks.count(n)),
      act(13, Kind.Count, op("filter(tenPercent isna)")(_.filter(col("tenPercent").isna)),
        Checks.count(Wisconsin.countMod(n, 10, 0))),
    )
    Program(events)
  }
}

/** A notebook-style session: one chain of filter/select/sort/map steps
  * grown to depth 48, with an action every four steps, so consecutive
  * actions share their prefix. Every seed gives a program of the same shape,
  * so its cost does not depend on the seed: the order of step kinds is fixed
  * ([[pattern]]), filters and sorts cycle through fixed attributes, the
  * actions cycle through count(), head(5) and head(2000), and column orders,
  * dropped columns and sort directions come from a fixed draw. The seed
  * draws every filter literal. (Drawing the shape per seed moved
  * MiniCypher's program time by up to 3.5x between seeds: its optimizer time
  * jumps on some shapes of nested projections.) Expected answers come from
  * [[RefFrame]], a plain-Scala evaluator over the generated rows.
  */
object DeepChain {
  val depth = 48
  private val actionEvery = 4
  /** Columns the steps filter and sort on; `select` never drops them. */
  private val core = Seq("unique1", "unique2", "onePercent", "twenty", "evenOnePercent", "stringu1", "tenPercent")
  /** Step kinds of steps 1 to 46; steps 47 and 48 select a string column and map it. */
  val pattern: Vector[String] = {
    val block = Vector("filter", "select", "filter", "sort", "filter", "filter", "select", "filter")
    Vector.fill(5)(block).flatten ++ block.take(6)
  }

  def program(rows: Vector[Vector[Any]], n: Long, seed: Long): Program = {
    val rng   = new Random(seed)
    val shape = new Random(7919L)
    val events = Vector.newBuilder[Event]
    var ref = RefFrame(Wisconsin.columns, rows, None)
    var step = 0
    // A known defect is given as the reference frame the defect would produce.
    def action(tag: String, kind: Kind, branch: Option[(Op, RefFrame => RefFrame)],
               defect: Option[(String, RefFrame => RefFrame)] = None): Unit = {
      val target = branch.fold(ref)(_._2(ref))
      val symptom = defect.map { case (name, wrong) =>
        val asWrong = wrong(ref).check(kind)
        Defect(name, asWrong(_).isEmpty)
      }
      events += Act(Action(tag, kind, branch.map(_._1), target.check(kind), symptom))
    }
    def advance(op: Op, r: RefFrame => RefFrame): Unit = {
      events += Step(op); ref = r(ref); step += 1
    }

    // len(df) on the untransformed frame: the metadata fast path where a backend has one.
    action("d0.count", Kind.Count, None)
    val actionKinds = Iterator.continually(Seq[Kind](Kind.Count, Kind.Head(5), Kind.Head(2000))).flatten
    def afterStep(): Unit = {
      if (step % actionEvery == 0) action(s"d$step", actionKinds.next(), None)
      // Null-handling probes, run beside the chain so they cannot poison later actions.
      if (step == 16) action("d16.nullsort", Kind.Head(5),
        Some(Op("sortValues(tenPercent)", (pf, _) => pf.sortValues("tenPercent")) -> (_.sort("tenPercent", asc = true))),
        Some(KnownDefects.NullSortOrder -> (_.sort("tenPercent", asc = true, missingFirst = true))))
      if (step == 32) {
        val v = rng.nextInt(9) + 1
        action("d32.nenull", Kind.Count,
          Some(Op(s"filter(tenPercent != $v)", (pf, _) => pf.filter(col("tenPercent") =!= v)) ->
            (_.filter("tenPercent", "ne", v.toLong))),
          Some(KnownDefects.NullNotEqual -> (_.filter("tenPercent", "ne", v.toLong).dropMissing("tenPercent"))))
      }
    }

    val filterKinds = Iterator.continually(0 until 6).flatten
    val sortKeys = Iterator.continually(Seq("onePercent", "unique1", "twenty", "stringu1", "evenOnePercent", "unique2")).flatten
    pattern.foreach { k =>
      k match {
        case "filter" =>
          val (attr, cmp, v) = filterKinds.next() match {
            case 0 => ("onePercent", "ne", rng.nextInt(100).toLong)
            case 1 => ("unique1", "ge", 1L + rng.nextLong(math.max(1L, n / 100)))
            case 2 => ("unique2", "le", n - 2 - rng.nextLong(math.max(1L, n / 100)))
            case 3 => ("evenOnePercent", "ne", 2L * rng.nextInt(100))
            case 4 => ("twenty", "ne", rng.nextInt(20).toLong)
            case _ => ("stringu1", "ne", Wisconsin.stringOf(rng.nextLong(n)))
          }
          val e = cmp match {
            case "ne" => col(attr) =!= v
            case "ge" => col(attr) >= v
            case _    => col(attr) <= v
          }
          advance(Op(s"filter($attr $cmp $v)", (pf, _) => pf.filter(e)), _.filter(attr, cmp, v))
        case "select" =>
          val droppable = ref.columns.filterNot(core.contains)
          val kept =
            if (droppable.isEmpty) ref.columns
            else ref.columns.filterNot(_ == droppable(shape.nextInt(droppable.size)))
          val cols = shape.shuffle(kept)
          advance(Op(s"select(${cols.mkString(",")})", (pf, _) => pf.select(cols: _*)), _.select(cols))
        case _ =>
          val attr = sortKeys.next()
          val asc  = shape.nextBoolean()
          advance(Op(s"sortValues($attr,${if (asc) "asc" else "desc"})", (pf, _) => pf.sortValues(attr, asc)),
            _.sort(attr, asc))
      }
      afterStep()
    }
    // The chain ends as a series: select a string column, then map it.
    advance(Op("select(stringu1)", (pf, _) => pf.select("stringu1")), _.select(Vector("stringu1")))
    afterStep()
    val fn = if (shape.nextBoolean()) "upper" else "lower"
    advance(Op(s"map($fn)", (pf, _) => pf.map(fn)), _.map(fn))
    afterStep()
    require(step == depth, s"session depth $step != $depth")
    Program(events.result())
  }
}

/** Known defects: an incorrect result counts as known when its action
  * probes one of these classes, the backend is listed for it, and the result
  * shows the defect's symptom. Every other incorrect result is unexpected
  * and fails the run.
  */
object KnownDefects {
  /** Ascending sort puts missing values first; Pandas puts them last. */
  val NullSortOrder = "null-sort-order"
  /** `x != v` drops rows where x is missing; Pandas keeps them. */
  val NullNotEqual = "null-not-equal"
  /** A group-by result lists the aggregates before the group keys (the
    * MongoDB rules restore keys from `_id` with a trailing `$addFields`).
    */
  val GroupKeyOrder = "group-key-column-order"

  val backends: Map[String, Set[String]] = Map(
    NullSortOrder -> Set("spark", "mongo", "cypher"),
    NullNotEqual  -> Set("spark", "duckdb", "mongo", "cypher"),
    GroupKeyOrder -> Set("mongo"),
  )

  /** The known defect that explains `r`, a wrong result of `a` on `backend`. */
  def explaining(a: Action, backend: String, r: LocalResult): Option[String] =
    a.defect.filter(d => backends.getOrElse(d.name, Set.empty).contains(backend) && d.symptom(r)).map(_.name)
}
