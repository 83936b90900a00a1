package repro.core

/** PolyFrame: a Pandas-like dataframe whose operations incrementally
  * compose queries in a target language, evaluated lazily.
  *
  * A *transformation* produces a new frame whose query `Qi+1` embeds `Qi`
  * via the language's `$subquery` slot — recording the order of operations
  * without executing anything. `Qi+1` embeds `Qi` per run of operations,
  * not per step: a frame keeps a base query and three pending steps, which
  * wait for the action.
  *  - Filter conditions, each translated when `filter` adds it, applied by
  *    one `q_filter` and joined by the `and` rule as a balanced tree. A
  *    filter that reads only attributes of the pending projection joins
  *    them, so it moves under the projection: both are plain attributes.
  *  - A plain projection, applied by one `q_project` over the filter. A
  *    `select` of a subset of it replaces it.
  *  - A sort key. Only an action knows whether row order matters, so `head`
  *    and `collectAll` apply the `q_sort` rule once, under their `LIMIT`
  *    rule, while counts, aggregates and group-bys use the unsorted query.
  *    An `ORDER BY` in a derived table has no effect on the outer result in
  *    SQL, yet DuckDB and PostgreSQL execute it.
  * Every other step composes on the frame's query as its new base, so a
  * program that reads a dropped attribute still gets the backend's error.
  *
  * *Actions* (`head`, `count`, `max`, ...) ship the accumulated query
  * through the [[DatabaseConnector]] and return a driver-local
  * [[LocalResult]] (the Pandas-DataFrame analogue).
  */
final class PolyFrame private (
    val connector: DatabaseConnector,
    /** The query the pending filters and projection apply to. */
    private val base: String,
    /** The pending filter conditions, translated, in program order. */
    private val conditions: Vector[String],
    /** The pending plain projection. */
    private val projection: Option[Seq[String]],
    /** The pending sort `(attribute, ascending)`, applied by the action. */
    private val sortKey: Option[(String, Boolean)],
    /** The known output schema, for callers; empty when unknown. */
    val columns: Seq[String],
    /** Collection the incremental chain started from. */
    val baseCollection: String,
    /** Set when this frame is a single-attribute series (`af['x']`). */
    val seriesName: Option[String],
    /** True only for the untransformed `q_all` frame — gates metadata
      * fast-paths like Neo4j's instant count.
      */
    val isBase: Boolean,
) extends Frame[PolyFrame] {
  private def lang: LanguageConfig = connector.lang

  /** The underlying query without the pending sort: the base, one
    * `q_filter` with the pending conditions, one `q_project`.
    */
  private lazy val unsorted: String = {
    val filtered = if (conditions.isEmpty) base else lang.sub("QUERIES", "q_filter",
      "subquery" -> base, "condition" -> conjunction(conditions))
    projection.fold(filtered) { attrs =>
      val items = attrs.map(a => lang.sub("ATTRIBUTES", "project_attribute", "attribute" -> a))
      lang.sub("QUERIES", "q_project", "subquery" -> filtered, "attrs" -> lang.joinFragments(items))
    }
  }

  /** The underlying query Qi for this frame, its pending sort applied. */
  lazy val query: String = sortKey.fold(unsorted) { case (attr, ascending) =>
    val key = if (ascending) "sort_asc_attr" else "sort_desc_attr"
    lang.sub("QUERIES", "q_sort",
      "subquery" -> unsorted, "sort_attrs" -> lang.sub("ATTRIBUTES", key, "attribute" -> attr))
  }

  /** The conditions joined by the `and` rule as a balanced tree, so a
    * nesting language (Mongo's `$and` array) nests about log2(n) levels.
    */
  private def conjunction(cs: Vector[String]): String = if (cs.size == 1) cs.head else {
    val (l, r) = cs.splitAt(cs.size / 2)
    lang.sub("LOGICAL STATEMENTS", "and", "left" -> conjunction(l), "right" -> conjunction(r))
  }

  private def pending(base: String = base, conditions: Vector[String] = conditions,
                      projection: Option[Seq[String]] = projection,
                      sort: Option[(String, Boolean)] = sortKey, cols: Seq[String] = columns,
                      series: Option[String] = seriesName): PolyFrame =
    new PolyFrame(connector, base, conditions, projection, sort, cols, baseCollection, series, isBase = false)

  /** A frame on the base query `q`, with nothing pending. */
  private def derived(q: String, cols: Seq[String], series: Option[String] = None): PolyFrame =
    pending(q, Vector.empty, None, None, cols, series)

  // ---------------------------------------------------------------- transformations

  /** Project attributes — `df[['a','b']]`. A projection that keeps the
    * pending sort's key keeps the sort pending; one that also keeps only
    * attributes of the pending projection replaces it.
    */
  def select(attrs: String*): PolyFrame = {
    require(attrs.nonEmpty, "select needs at least one attribute")
    val keep   = sortKey.filter { case (attr, _) => attrs.contains(attr) }
    val series = if (attrs.size == 1) Some(attrs.head) else None
    if (keep == sortKey && projection.forall(p => attrs.forall(p.contains)))
      pending(projection = Some(attrs), cols = attrs, series = series)
    else
      pending(if (keep.isDefined) unsorted else query, Vector.empty, Some(attrs), keep, attrs, series)
  }

  /** Single-attribute projection — `df['a']`. */
  def apply(attr: String): PolyFrame = select(attr)

  /** Boolean/computed series — `df['lang'] == 'en'` as a standalone frame
    * (Table I operation 3). The projected column is named after the
    * expression (`is_eq`, ...).
    */
  def projectExpr(e: PFExpr, alias: String = null): PolyFrame = {
    val a = Option(alias).getOrElse(PFExpr.seriesAlias(e))
    val q = lang.sub("QUERIES", "q_project_value",
      "subquery" -> query, "statement" -> LanguageConfig.translate(e, lang), "alias" -> a)
    derived(q, Seq(a), series = Some(a))
  }

  /** Row selection — `df[cond]`. A condition that reads only attributes
    * of the pending projection joins the pending conditions; any other
    * filters the frame's unsorted query. The pending sort stays pending,
    * and a filtered series is still a series (`s[s > 1].max()`).
    */
  def filter(cond: PFExpr): PolyFrame = {
    val c = LanguageConfig.translate(cond, lang)
    if (projection.forall(p => PolyFrame.attributes(cond).forall(p.contains))) pending(conditions = conditions :+ c)
    else pending(unsorted, Vector(c), None)
  }

  /** Element-wise function over a series — `df['s'].map(str.upper)`.
    * `fn` must exist in [STRING FUNCTIONS] or [TYPE CONVERSION].
    */
  def map(fn: String): PolyFrame = {
    val attr = seriesName.getOrElse(
      throw new IllegalStateException("map() requires a single-attribute series"))
    val stmt = LanguageConfig.translate(PFExpr.Func(fn, PFExpr.Attr(attr)), lang)
    val item = lang.sub("ATTRIBUTES", "attribute_alias", "alias" -> attr, "statement" -> stmt)
    val q = lang.sub("QUERIES", "q_project", "subquery" -> query, "attrs" -> item)
    derived(q, Seq(attr), series = Some(attr))
  }

  /** Sort — `df.sort_values(attr, ascending)`. It replaces the pending
    * sort: Pandas' default sort is not stable, so ties are unspecified.
    * A sorted series is still a series.
    */
  def sortValues(attr: String, ascending: Boolean): PolyFrame =
    pending(sort = Some(attr -> ascending))

  /** Group by — `df.groupby(keys)`, combined with [[Grouped.agg]]. */
  def groupBy(keys: String*): PolyFrame.Grouped = PolyFrame.Grouped(this, keys)

  /** Inner equi-join — `pd.merge(df, df2, left_on, right_on)`.
    *
    * Pipeline-style backends (MongoDB `$lookup`, Cypher's second MATCH)
    * join against a *collection*, so `right` must be an (optionally
    * transformed) frame rooted at a base collection — true for every
    * benchmark workload, as in the paper (which could not shard-join in
    * MongoDB at all).
    */
  def join(right: PolyFrame, leftOn: String, rightOn: String): PolyFrame = {
    val q = lang.sub("QUERIES", "q_join",
      "subquery"         -> query,
      "right_subquery"   -> right.query,
      "right_collection" -> right.baseCollection,
      "left_on"          -> leftOn,
      "right_on"         -> rightOn)
    derived(q, columns ++ right.columns)
  }

  private def aggItem(fn: String, attr: String): (String, String) = {
    val alias = s"${fn}_$attr"
    val agg   = lang.sub("FUNCTIONS", fn, "attribute" -> attr)
    alias -> lang.sub("ATTRIBUTES", "agg_alias", "alias" -> alias, "agg" -> agg)
  }

  /** One-hot encode a series — Pandas `get_dummies`. A *generic rule*: the
    * distinct values are fetched with the group-by rewrite, then each
    * dummy column is `to_int(attr = value)` via the language's TYPE
    * CONVERSION and COMPARISON rules.
    */
  def getDummies(): PolyFrame = {
    val attr = seriesName.getOrElse(
      throw new IllegalStateException("get_dummies() requires a single-attribute series"))
    val distinct = groupBy(attr).agg("count").collectAll()
    val idx      = distinct.columns.indexOf(attr)
    val values   = distinct.rows.map(_(idx)).filter(_ != null).map(_.toString).sorted
    val items = values.map { v =>
      val stmt = LanguageConfig.translate(
        PFExpr.Func("to_int", PFExpr.Cmp("eq", PFExpr.Attr(attr), PFExpr.Lit(v))), lang)
      lang.sub("ATTRIBUTES", "attribute_alias", "alias" -> s"${attr}_$v", "statement" -> stmt)
    }
    val q = lang.sub("QUERIES", "q_project", "subquery" -> query, "attrs" -> lang.joinFragments(items))
    derived(q, values.map(v => s"${attr}_$v"))
  }

  // ------------------------------------------------- action query texts
  // Exposed so tests can hand the exact shipped query to an oracle.

  /** The query `head(n)` ships. */
  def headQuery(n: Int): String =
    lang.sub("LIMIT", "limit", "subquery" -> query, "num" -> n.toString)

  /** The query `collectAll()` ships. */
  def collectQuery: String = lang.sub("LIMIT", "return_all", "subquery" -> query)

  /** The query `count()` ships (when not served from metadata). */
  def countQuery: String = lang.sub("QUERIES", "q_count_all", "subquery" -> unsorted)

  /** The query `aggValue(fn)` ships. */
  def aggValueQuery(fn: String): String = {
    val attr = seriesName.getOrElse(
      throw new IllegalStateException(s"$fn() requires a single-attribute series"))
    val (_, item) = aggItem(fn, attr)
    val q = lang.sub("QUERIES", "q_agg_value", "subquery" -> unsorted, "aggs" -> item)
    lang.sub("LIMIT", "return_all", "subquery" -> q)
  }

  // ---------------------------------------------------------------- actions

  /** First n rows — appends the LIMIT rule and evaluates. */
  def head(n: Int): LocalResult = connector.run(headQuery(n), baseCollection)

  /** Materialize all rows (internal helper for small results). */
  def collectAll(): LocalResult = connector.run(collectQuery, baseCollection)

  /** `len(df)` — total count. Served from backend metadata when the
    * backend maintains one and this frame is the untransformed base
    * (the Neo4j fast path from the paper's expression 1 discussion).
    */
  def count(): Long = {
    val meta = if (isBase) connector.countMetadata(baseCollection) else None
    meta.getOrElse(connector.run(countQuery, baseCollection).scalarLong)
  }

  /** Scalar aggregate of a series — fn in min/max/avg/std/sum/count. */
  def aggValue(fn: String): LocalResult =
    connector.run(aggValueQuery(fn), baseCollection)

  def max(): Double = aggValue("max").scalarDouble
  def min(): Double = aggValue("min").scalarDouble
  def avg(): Double = aggValue("avg").scalarDouble
  def std(): Double = aggValue("std").scalarDouble
  def sum(): Double = aggValue("sum").scalarDouble

  /** Pandas `describe()` — a *generic rule*: min/max/avg/std/count of each
    * given attribute, chained with the attribute separator into a single
    * aggregate query (paper §III-C-2).
    */
  def describe(attrs: Seq[String]): LocalResult = {
    require(attrs.nonEmpty, "describe needs attributes")
    val fns   = Seq("min", "max", "avg", "std", "count")
    val items = for (a <- attrs; f <- fns) yield aggItem(f, a)._2
    val q = lang.sub("QUERIES", "q_agg_value",
      "subquery" -> unsorted, "aggs" -> lang.joinFragments(items))
    connector.run(lang.sub("LIMIT", "return_all", "subquery" -> q), baseCollection)
  }
}

object PolyFrame {

  /** Entry point — `AFrame('Test', 'Users')` in the paper: wraps an
    * existing collection without touching any data.
    */
  def apply(connector: DatabaseConnector, namespace: String, collection: String,
            columns: Seq[String] = Nil): PolyFrame = {
    val q = connector.lang.sub("QUERIES", "q_all",
      "namespace" -> namespace, "collection" -> collection)
    new PolyFrame(connector, q, Vector.empty, None, None, columns, collection, seriesName = None, isBase = true)
  }

  /** The attributes an expression reads. */
  private def attributes(e: PFExpr): Set[String] = e match {
    case PFExpr.Attr(name)       => Set(name)
    case PFExpr.Lit(_)           => Set.empty
    case PFExpr.Cmp(_, l, r)     => attributes(l) ++ attributes(r)
    case PFExpr.Arith(_, l, r)   => attributes(l) ++ attributes(r)
    case PFExpr.Logical(_, l, r) => attributes(l) ++ attributes(r)
    case PFExpr.Not(x)           => attributes(x)
    case PFExpr.IsNa(x)          => attributes(x)
    case PFExpr.Func(_, x)       => attributes(x)
  }

  /** Deferred group-by: `df.groupby(keys).agg(...)`. */
  final case class Grouped(pf: PolyFrame, keys: Seq[String]) extends Frame.Grouped[PolyFrame] {
    require(keys.nonEmpty, "groupBy needs at least one key")

    /** `agg('count')` — aggregate over the group key(s), as the paper's
      * expression 4 does.
      */
    def agg(fn: String): PolyFrame = aggImpl(keys.map(k => fn -> k))

    /** `groupby(k)['a'].agg(fn)`. */
    def agg(fn: String, attr: String): PolyFrame = aggImpl(Seq(fn -> attr))

    /** One path for every language: `group_key` names each key in the
      * grouping clause, `group_output` carries it in the result.
      */
    private def aggImpl(items: Seq[(String, String)]): PolyFrame = {
      val lang = pf.connector.lang
      val (aliases, aggAliased) = items.map { case (fn, attr) => pf.aggItem(fn, attr) }.unzip
      def rule(key: String) = lang.joinFragments(keys.map(k => lang.sub("ATTRIBUTES", key, "attribute" -> k)))
      val q = lang.sub("QUERIES", "q_groupby",
        "subquery"    -> pf.unsorted,
        "keys"        -> rule("group_key"),
        "key_outputs" -> rule("group_output"),
        "aggs"        -> lang.joinFragments(aggAliased))
      pf.derived(q, keys ++ aliases)
    }
  }
}
