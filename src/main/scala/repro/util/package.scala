package repro

package object util {
  /** A parsed JSON array, e.g. a MongoDB aggregation pipeline. */
  type JArr = org.json4s.JArray
}
