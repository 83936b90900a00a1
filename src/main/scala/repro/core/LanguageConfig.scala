package repro.core

import repro.util.Ini

/** A language configuration: the set of rewrite-rule templates that turn
  * PolyFrame operations into (sub)queries for one target query language.
  *
  * Mirrors the paper's INI-style configuration files (Appendix B/C):
  * sections like `[QUERIES]`, `[COMPARISON STATEMENTS]`, `[FUNCTIONS]`
  * hold `key = template` entries whose `$variable` slots are substituted
  * at rewrite time — `$subquery` always receives the previous operation's
  * underlying query, which is how the order of operations is recorded.
  *
  * Users can supply their own configuration text (User-Defined Rewrites):
  * `LanguageConfig("mylang", iniText)` — any key they override replaces
  * the stock rule.
  */
final class LanguageConfig(val name: String, val sections: Ini.Config) {

  def get(section: String, key: String): Option[String] =
    sections.get(section).flatMap(_.get(key))

  def has(section: String, key: String): Boolean = get(section, key).isDefined

  def template(section: String, key: String): String =
    get(section, key).getOrElse(
      throw new NoSuchElementException(s"language '$name' has no rule [$section] $key"))

  /** Substitute `$var` slots of `[section] key`'s template. */
  def sub(section: String, key: String, vars: (String, String)*): String =
    LanguageConfig.substitute(template(section, key), vars.toMap)

  /** Fold a list of fragments with the `attribute_separator` rule
    * (`$left, $right` style), as the paper's configs do.
    */
  def joinFragments(items: Seq[String]): String = {
    require(items.nonEmpty, "cannot join an empty fragment list")
    val sep = template("ATTRIBUTES", "attribute_separator")
    items.reduceLeft((l, r) => LanguageConfig.substitute(sep, Map("left" -> l, "right" -> r)))
  }

  /** Derive a new configuration with user-defined overrides layered on top. */
  def withOverrides(iniText: String): LanguageConfig = {
    val over = Ini.parse(iniText)
    val merged = over.foldLeft(sections) { case (acc, (sec, entries)) =>
      acc.updated(sec, acc.getOrElse(sec, scala.collection.immutable.ListMap.empty[String, String]) ++ entries)
    }
    new LanguageConfig(name, merged)
  }
}

object LanguageConfig {

  def apply(name: String, iniText: String): LanguageConfig =
    new LanguageConfig(name, Ini.parse(iniText))

  /** Replace `$var` occurrences for vars present in `vars`; unknown
    * `$...` tokens (e.g. MongoDB's own `$eq`, `$$left`) pass through
    * untouched. Replacement is single-pass — substituted text is never
    * re-scanned, so values containing `$` are safe.
    *
    * A variable reference ends at the first character that cannot be part
    * of an identifier; the longest variable name present in `vars` wins
    * (`$attribute_alias` before `$attribute`).
    */
  def substitute(tpl: String, vars: Map[String, String]): String = {
    if (vars.isEmpty) return tpl
    val names = vars.keys.toSeq.sortBy(-_.length)
    val sb    = new StringBuilder
    var i     = 0
    while (i < tpl.length) {
      val c = tpl(i)
      if (c == '$') {
        names.find(n => tpl.startsWith(n, i + 1) && {
          val end = i + 1 + n.length
          end >= tpl.length || !(tpl(end).isLetterOrDigit || tpl(end) == '_')
        }) match {
          case Some(n) => sb.append(vars(n)); i += 1 + n.length
          case None    => sb.append(c); i += 1
        }
      } else { sb.append(c); i += 1 }
    }
    sb.toString
  }

  /** Translate a PolyFrame expression tree using a language's rewrite rules. */
  def translate(e: PFExpr, lang: LanguageConfig): String = e match {
    case PFExpr.Attr(name) =>
      lang.sub("ATTRIBUTES", "single_attribute", "attribute" -> name)
    case PFExpr.Lit(v) => literal(v, lang)
    // Pandas: `x == None` is false on every row, and `x != y` is `~(x == y)`
    case PFExpr.Cmp("eq", l, r) if l == PFExpr.Lit(null) || r == PFExpr.Lit(null) => literal(false, lang)
    case PFExpr.Cmp("ne", l, r) => translate(PFExpr.Not(PFExpr.Cmp("eq", l, r)), lang)
    case PFExpr.Cmp(op, l, r) =>
      lang.sub("COMPARISON STATEMENTS", op, "left" -> translate(l, lang), "right" -> translate(r, lang))
    case PFExpr.Arith(op, l, r) =>
      lang.sub("ARITHMETIC STATEMENTS", op, "left" -> translate(l, lang), "right" -> translate(r, lang))
    case PFExpr.Logical(op, l, r) =>
      lang.sub("LOGICAL STATEMENTS", op, "left" -> translate(l, lang), "right" -> translate(r, lang))
    case PFExpr.Not(x) =>
      lang.sub("LOGICAL STATEMENTS", "not", "left" -> translate(x, lang))
    case PFExpr.IsNa(x) =>
      lang.sub("COMPARISON STATEMENTS", "isna", "left" -> translate(x, lang))
    case PFExpr.Func(fn, x) =>
      val section = Seq("STRING FUNCTIONS", "TYPE CONVERSION").find(lang.has(_, fn)).getOrElse(
        throw new NoSuchElementException(
          s"language '${lang.name}' has no scalar function '$fn' in [STRING FUNCTIONS] or [TYPE CONVERSION]"))
      lang.sub(section, fn, "statement" -> translate(x, lang))
  }

  private def literal(v: Any, lang: LanguageConfig): String = v match {
    case null      => lang.template("LITERALS", "null")
    case s: String => substitute(lang.template("LITERALS", "string"), Map("value" -> escape(s, lang)))
    case b: Boolean => b.toString
    // A whole double below 1e15, the bound `LocalResult.normalize` uses, is
    // an integer; any other keeps Java's form (`1.0E19`, `1.0E-4`)
    case d: Double if d.isWhole && math.abs(d) < 1e15 => d.toLong.toString
    case other     => other.toString
  }

  /** A string value as it goes between the quotes of `[LITERALS] string`:
    * each character of `escaped_chars` is written by the `escape` template
    * (`$char$char` doubles a quote, `\$char` backslash-escapes it). A
    * configuration without `escaped_chars` ships the value unchanged.
    */
  private def escape(s: String, lang: LanguageConfig): String =
    lang.get("LITERALS", "escaped_chars").fold(s) { chars =>
      val tpl = lang.template("LITERALS", "escape")
      s.flatMap(c => if (chars.indexOf(c) >= 0) substitute(tpl, Map("char" -> c.toString)) else c.toString)
    }
}
