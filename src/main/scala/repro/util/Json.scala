package repro.util

import com.fasterxml.jackson.core.json.JsonReadFeature
import com.fasterxml.jackson.databind.DeserializationFeature
import org.json4s.JValue
import org.json4s.jackson.JsonMethods

/** Strict JSON parsing into json4s's AST, the JSON library Spark ships.
  * Used for the MongoDB aggregation pipelines that PolyFrame's Mongo
  * rewrite rules emit and for the JSON-lines Wisconsin datasets of the
  * eager Pandas baseline. Printing is json4s's `JsonMethods.compact`.
  *
  * Three settings differ from `JsonMethods.parse`: trailing content after
  * the value is an error (Jackson ignores it by default); raw control
  * characters inside strings are accepted, because the Mongo string
  * literal rule (`"$value"`) does not escape them; and integers parse to
  * `JLong`, not `JInt`'s `BigInt`. Other numbers parse to `JDouble`;
  * object key order is kept.
  */
object Json {
  private val reader = JsonMethods.mapper.readerFor(classOf[JValue])
    .`with`(DeserializationFeature.FAIL_ON_TRAILING_TOKENS)
    .without(DeserializationFeature.USE_BIG_INTEGER_FOR_INTS)
    .`with`(JsonReadFeature.ALLOW_UNESCAPED_CONTROL_CHARS)

  def parse(input: String): JValue = reader.readValue[JValue](input)
}
