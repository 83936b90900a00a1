package repro.core

import org.apache.spark.sql.DataFrame

/** Connector that never executes — for pure query-formation tests. */
final class NullConnector(override val lang: LanguageConfig) extends DatabaseConnector {
  override def name = s"null-${lang.name}"
  override def initialize(namespace: String, collection: String, data: DataFrame): Unit = ()
  override def execute(query: String, baseCollection: String): LocalResult =
    throw new UnsupportedOperationException(s"NullConnector cannot execute: $query")
}

object TestSupport {
  /** Whitespace-insensitive comparison form for generated queries. */
  def norm(s: String): String = s.replaceAll("\\s+", " ").trim

  def frame(lang: LanguageConfig, namespace: String = "Test",
            collection: String = "Users"): PolyFrame =
    PolyFrame(new NullConnector(lang), namespace, collection,
              Seq("lang", "name", "address"))
}

/** A chain composed one rule per step, the text PolyFrame shipped before
  * filters and projections waited for the action: each `filter` and
  * `select` nests one `q_filter` / `q_project` on the previous query. The
  * sort waits for the action, as in [[PolyFrame]]; a `select` that drops
  * its key applies it first.
  */
final case class NestedChain(lang: LanguageConfig, unsorted: String,
                             sort: Option[(String, Boolean)] = None) {
  def query: String = sort.fold(unsorted) { case (attr, ascending) =>
    val key = if (ascending) "sort_asc_attr" else "sort_desc_attr"
    lang.sub("QUERIES", "q_sort",
      "subquery" -> unsorted, "sort_attrs" -> lang.sub("ATTRIBUTES", key, "attribute" -> attr))
  }

  def filter(cond: PFExpr): NestedChain = copy(unsorted = lang.sub("QUERIES", "q_filter",
    "subquery" -> unsorted, "condition" -> LanguageConfig.translate(cond, lang)))

  def select(attrs: String*): NestedChain = {
    val keep  = sort.filter { case (attr, _) => attrs.contains(attr) }
    val items = attrs.map(a => lang.sub("ATTRIBUTES", "project_attribute", "attribute" -> a))
    NestedChain(lang, lang.sub("QUERIES", "q_project",
      "subquery" -> (if (keep.isDefined) unsorted else query), "attrs" -> lang.joinFragments(items)), keep)
  }

  def sortValues(attr: String, ascending: Boolean = true): NestedChain = copy(sort = Some(attr -> ascending))

  def countQuery: String   = lang.sub("QUERIES", "q_count_all", "subquery" -> unsorted)
  def headQuery(n: Int): String = lang.sub("LIMIT", "limit", "subquery" -> query, "num" -> n.toString)
  def collectQuery: String = lang.sub("LIMIT", "return_all", "subquery" -> query)
}

object NestedChain {
  /** The untransformed collection, as `PolyFrame.apply` starts it. */
  def apply(lang: LanguageConfig, namespace: String, collection: String): NestedChain =
    NestedChain(lang, lang.sub("QUERIES", "q_all", "namespace" -> namespace, "collection" -> collection))
}
