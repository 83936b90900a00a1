package repro.core.languages

import repro.core.LanguageConfig

/** Stock language configurations.
  *
  * Each is an INI-style rewrite-rule file in the paper's format
  * (Appendix B/C). The rule-key vocabulary is unified across languages:
  *
  *  - `[QUERIES]` q_all / q_project / q_project_value / q_filter /
  *    q_groupby / q_sort / q_join / q_agg_value / q_count_all
  *  - `[ATTRIBUTES]` reference/alias/sort-item/separator templates, and the
  *    group-by pair: `group_key` names a key in the grouping clause
  *    (`$keys`), `group_output` carries it in the result (`$key_outputs`)
  *  - `[COMPARISON STATEMENTS]` eq / gt / lt / ge / le / isna, and no `ne`:
  *    `translate` writes `x != y` as `not` over `eq`, so `not` must be
  *    two-valued (true where its operand is false or unknown), as Pandas' `~`
  *  - `[ARITHMETIC|LOGICAL STATEMENTS]`, `[TYPE CONVERSION]` and
  *    `[STRING FUNCTIONS]` (the only scalar functions, e.g. for `map`),
  *    `[LITERALS]` (with the per-language `escaped_chars`/`escape` rule
  *    for string values), `[FUNCTIONS]` (aggregates), `[LIMIT]`
  *
  * `$subquery` always receives the previous operation's underlying query.
  * MongoDB "queries" are comma-separated aggregation-pipeline stages; its
  * connector wraps them as `collection.aggregate([ ... ])`.
  */
object Languages {

  /** SQL++ for Apache AsterixDB. */
  val sqlpp: LanguageConfig = LanguageConfig("sql++",
    """[QUERIES]
      |q_all = SELECT VALUE t FROM $namespace.$collection t
      |q_project = SELECT $attrs FROM ($subquery) t
      |q_project_value = SELECT VALUE $statement FROM ($subquery) t
      |q_filter = SELECT VALUE t FROM ($subquery) t WHERE $condition
      |q_groupby = SELECT $key_outputs, $aggs FROM ($subquery) t GROUP BY $keys
      |q_sort = SELECT VALUE t FROM ($subquery) t ORDER BY $sort_attrs
      |q_join = SELECT l, r FROM ($subquery) l JOIN ($right_subquery) r ON l.$left_on = r.$right_on
      |q_agg_value = SELECT $aggs FROM ($subquery) t
      |q_count_all = SELECT VALUE COUNT(*) FROM ($subquery) t
      |
      |[ATTRIBUTES]
      |single_attribute = t.$attribute
      |project_attribute = t.$attribute
      |attribute_alias = $statement AS $alias
      |group_key = t.$attribute
      |group_output = t.$attribute
      |agg_alias = $agg AS $alias
      |sort_asc_attr = t.$attribute
      |sort_desc_attr = t.$attribute DESC
      |attribute_separator = $left, $right
      |
      |[ARITHMETIC STATEMENTS]
      |add = $left + $right
      |sub = $left - $right
      |mul = $left * $right
      |div = $left / $right
      |mod = $left % $right
      |
      |[LOGICAL STATEMENTS]
      |and = $left AND $right
      |or = ($left OR $right)
      |not = NOT coalesce($left, false)
      |
      |[COMPARISON STATEMENTS]
      |eq = $left = $right
      |gt = $left > $right
      |lt = $left < $right
      |ge = $left >= $right
      |le = $left <= $right
      |isna = $left IS UNKNOWN
      |
      |[TYPE CONVERSION]
      |to_int = to_bigint($statement)
      |to_str = to_string($statement)
      |
      |[STRING FUNCTIONS]
      |upper = UPPER($statement)
      |lower = LOWER($statement)
      |
      |[LITERALS]
      |string = "$value"
      |escaped_chars = \"
      |escape = \$char
      |null = NULL
      |
      |[FUNCTIONS]
      |min = MIN(t.$attribute)
      |max = MAX(t.$attribute)
      |avg = AVG(t.$attribute)
      |std = STDDEV_POP(t.$attribute)
      |count = COUNT(t.$attribute)
      |sum = SUM(t.$attribute)
      |
      |[LIMIT]
      |limit = $subquery
      | LIMIT $num
      |return_all = $subquery
      |""".stripMargin)

  /** SQL for PostgreSQL — executed against DuckDB in this reproduction. */
  val sql: LanguageConfig = LanguageConfig("sql",
    """[QUERIES]
      |q_all = SELECT * FROM $namespace.$collection t
      |q_project = SELECT $attrs FROM ($subquery) t
      |q_project_value = SELECT $statement AS "$alias" FROM ($subquery) t
      |q_filter = SELECT t.* FROM ($subquery) t WHERE $condition
      |q_groupby = SELECT $key_outputs, $aggs FROM ($subquery) t GROUP BY $keys
      |q_sort = SELECT * FROM ($subquery) t ORDER BY $sort_attrs
      |q_join = SELECT l.*, r.* FROM ($subquery) l INNER JOIN ($right_subquery) r ON l."$left_on" = r."$right_on"
      |q_agg_value = SELECT $aggs FROM ($subquery) t
      |q_count_all = SELECT COUNT(*) AS "count" FROM ($subquery) t
      |
      |[ATTRIBUTES]
      |single_attribute = t."$attribute"
      |project_attribute = t."$attribute"
      |attribute_alias = $statement AS "$alias"
      |group_key = t."$attribute"
      |group_output = t."$attribute"
      |agg_alias = $agg AS "$alias"
      |sort_asc_attr = t."$attribute"
      |sort_desc_attr = t."$attribute" DESC
      |attribute_separator = $left, $right
      |
      |[ARITHMETIC STATEMENTS]
      |add = $left + $right
      |sub = $left - $right
      |mul = $left * $right
      |div = $left / $right
      |mod = $left % $right
      |
      |[LOGICAL STATEMENTS]
      |and = $left AND $right
      |or = ($left OR $right)
      |not = (($left) IS NOT TRUE)
      |
      |[COMPARISON STATEMENTS]
      |eq = $left = $right
      |gt = $left > $right
      |lt = $left < $right
      |ge = $left >= $right
      |le = $left <= $right
      |isna = $left IS NULL
      |
      |[TYPE CONVERSION]
      |to_int = CAST($statement AS INTEGER)
      |to_str = CAST($statement AS VARCHAR)
      |
      |[STRING FUNCTIONS]
      |upper = upper($statement)
      |lower = lower($statement)
      |
      |[LITERALS]
      |string = '$value'
      |escaped_chars = '
      |escape = $char$char
      |null = NULL
      |
      |[FUNCTIONS]
      |min = MIN(t."$attribute")
      |max = MAX(t."$attribute")
      |avg = AVG(t."$attribute")
      |std = STDDEV_POP(t."$attribute")
      |count = COUNT(t."$attribute")
      |sum = SUM(t."$attribute")
      |
      |[LIMIT]
      |limit = $subquery
      | LIMIT $num
      |return_all = $subquery
      |""".stripMargin)

  /** Spark SQL — the primary retarget of this reproduction, written as
    * overrides of the SQL rules (the paper's User-Defined Rewrites).
    * Identifiers are unquoted (temp-view names carry no namespace, so
    * `q_all` references `$collection` directly), types use Spark's names,
    * string literals escape `\` and `'` with a backslash (Spark's parser
    * reads backslash escapes), and ascending sorts put nulls last as Pandas
    * does (Spark's default is first; `DESC` already puts them last).
    */
  val sparkSql: LanguageConfig = new LanguageConfig("sparksql", sql.withOverrides(
    """[QUERIES]
      |q_all = SELECT * FROM $collection t
      |q_project_value = SELECT $statement AS $alias FROM ($subquery) t
      |q_join = SELECT l.*, r.* FROM ($subquery) l INNER JOIN ($right_subquery) r ON l.$left_on = r.$right_on
      |q_count_all = SELECT COUNT(*) AS count FROM ($subquery) t
      |
      |[ATTRIBUTES]
      |single_attribute = t.$attribute
      |project_attribute = t.$attribute
      |attribute_alias = $statement AS $alias
      |group_key = t.$attribute
      |group_output = t.$attribute
      |agg_alias = $agg AS $alias
      |sort_asc_attr = t.$attribute NULLS LAST
      |sort_desc_attr = t.$attribute DESC
      |
      |[TYPE CONVERSION]
      |to_int = CAST($statement AS INT)
      |to_str = CAST($statement AS STRING)
      |
      |[LITERALS]
      |escaped_chars = \'
      |escape = \$char
      |
      |[FUNCTIONS]
      |min = MIN(t.$attribute)
      |max = MAX(t.$attribute)
      |avg = AVG(t.$attribute)
      |std = STDDEV_POP(t.$attribute)
      |count = COUNT(t.$attribute)
      |sum = SUM(t.$attribute)
      |""".stripMargin).sections)

  /** MongoDB aggregation-pipeline stages (comma-separated; the connector
    * wraps them in `aggregate([...])`). Every expression rule renders a
    * whole JSON value (an attribute is its field path `"$attribute"`), so
    * expressions nest like the SQL ones: `upper(lower(s))`, `(a + 1) == 3`.
    */
  val mongo: LanguageConfig = LanguageConfig("mongo",
    """[QUERIES]
      |q_all = { "$match": {} }
      |q_project = $subquery,
      | { "$project": { $attrs } }
      |q_project_value = $subquery,
      | { "$project": { "$alias": $statement } }
      |q_filter = $subquery,
      | { "$match": { "$expr": $condition } }
      |q_groupby = $subquery,
      | { "$group": { "_id": { $keys }, $aggs } },
      | { "$addFields": { $key_outputs } },
      | { "$project": { "_id": 0 } }
      |q_sort = $subquery,
      | { "$sort": { $sort_attrs } }
      |q_join = $subquery,
      | { "$lookup": { "from": "$right_collection", "as": "$right_collection", "let": { "left": "$$left_on" }, "pipeline": [ $right_subquery, { "$match": { "$expr": { "$eq": [ "$$right_on", "$$left" ] } } } ] } },
      | { "$unwind": { "path": "$$right_collection", "preserveNullAndEmptyArrays": false } }
      |q_agg_value = $subquery,
      | { "$group": { "_id": {}, $aggs } },
      | { "$project": { "_id": 0 } }
      |q_count_all = $subquery,
      | { "$count": "count" }
      |
      |[ATTRIBUTES]
      |single_attribute = "$$attribute"
      |project_attribute = "$attribute": 1
      |attribute_alias = "$alias": $statement
      |group_key = "$attribute": "$$attribute"
      |group_output = "$attribute": "$_id.$attribute"
      |agg_alias = "$alias": { $agg }
      |sort_asc_attr = "$attribute": 1
      |sort_desc_attr = "$attribute": -1
      |attribute_separator = $left, $right
      |
      |[ARITHMETIC STATEMENTS]
      |add = { "$add": [ $left, $right ] }
      |sub = { "$subtract": [ $left, $right ] }
      |mul = { "$multiply": [ $left, $right ] }
      |div = { "$divide": [ $left, $right ] }
      |mod = { "$mod": [ $left, $right ] }
      |
      |[LOGICAL STATEMENTS]
      |and = { "$and": [ $left, $right ] }
      |or = { "$or": [ $left, $right ] }
      |not = { "$not": [ $left ] }
      |
      |[COMPARISON STATEMENTS]
      |eq = { "$eq": [ $left, $right ] }
      |gt = { "$gt": [ $left, $right ] }
      |lt = { "$lt": [ $left, $right ] }
      |ge = { "$gte": [ $left, $right ] }
      |le = { "$lte": [ $left, $right ] }
      |isna = { "$lt": [ $left, null ] }
      |
      |[TYPE CONVERSION]
      |to_int = { "$toInt": $statement }
      |to_str = { "$toString": $statement }
      |
      |[STRING FUNCTIONS]
      |upper = { "$toUpper": $statement }
      |lower = { "$toLower": $statement }
      |
      |[LITERALS]
      |string = { "$literal": "$value" }
      |escaped_chars = \"
      |escape = \$char
      |null = null
      |
      |[FUNCTIONS]
      |min = "$min": "$$attribute"
      |max = "$max": "$$attribute"
      |avg = "$avg": "$$attribute"
      |std = "$stdDevPop": "$$attribute"
      |count = "$sum": { "$cond": [ { "$gt": [ "$$attribute", null ] }, 1, 0 ] }
      |sum = "$sum": "$$attribute"
      |
      |[LIMIT]
      |limit = $subquery,
      | { "$project": { "_id": 0 } },
      | { "$limit": $num }
      |return_all = $subquery,
      | { "$project": { "_id": 0 } }
      |""".stripMargin)

  /** Cypher using WITH statements (Neo4j). */
  val cypher: LanguageConfig = LanguageConfig("cypher",
    """[QUERIES]
      |q_all = MATCH(t: $collection)
      |q_project = $subquery
      | WITH t{$attrs}
      |q_project_value = $subquery
      | WITH t{'$alias': $statement}
      |q_filter = $subquery
      | WITH t WHERE $condition
      |q_groupby = $subquery
      | WITH { $key_outputs, $aggs } AS t
      |q_sort = $subquery
      | WITH t ORDER BY $sort_attrs
      |q_join = $subquery
      | MATCH(r: $right_collection) WHERE t.$left_on = r.$right_on
      | WITH t, r
      |q_agg_value = $subquery
      | WITH { $aggs } AS t
      |q_count_all = $subquery
      | RETURN COUNT(*) AS t
      |
      |[ATTRIBUTES]
      |single_attribute = t.$attribute
      |project_attribute = '$attribute': t.$attribute
      |attribute_alias = '$alias': $statement
      |group_key = t.$attribute
      |group_output = '$attribute': t.$attribute
      |agg_alias = '$alias': $agg
      |sort_asc_attr = t.$attribute
      |sort_desc_attr = t.$attribute DESC
      |attribute_separator = $left, $right
      |
      |[ARITHMETIC STATEMENTS]
      |add = $left + $right
      |sub = $left - $right
      |mul = $left * $right
      |div = $left / $right
      |mod = $left % $right
      |
      |[LOGICAL STATEMENTS]
      |and = $left AND $right
      |or = ($left OR $right)
      |not = NOT coalesce($left, false)
      |
      |[COMPARISON STATEMENTS]
      |eq = $left = $right
      |gt = $left > $right
      |lt = $left < $right
      |ge = $left >= $right
      |le = $left <= $right
      |isna = $left IS NULL
      |
      |[TYPE CONVERSION]
      |to_int = toInteger($statement)
      |to_str = toString($statement)
      |
      |[STRING FUNCTIONS]
      |upper = upper($statement)
      |lower = lower($statement)
      |
      |[LITERALS]
      |string = "$value"
      |escaped_chars = \"
      |escape = \$char
      |null = NULL
      |
      |[FUNCTIONS]
      |min = min(t.$attribute)
      |max = max(t.$attribute)
      |avg = avg(t.$attribute)
      |std = stDevP(t.$attribute)
      |count = count(t.$attribute)
      |sum = sum(t.$attribute)
      |
      |[LIMIT]
      |limit = $subquery
      | RETURN t
      | LIMIT $num
      |return_all = $subquery
      | RETURN t
      |""".stripMargin)

  val all: Map[String, LanguageConfig] =
    Map("sql++" -> sqlpp, "sql" -> sql, "sparksql" -> sparkSql,
        "mongo" -> mongo, "cypher" -> cypher)
}
