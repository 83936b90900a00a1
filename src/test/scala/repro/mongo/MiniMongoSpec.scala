package repro.mongo

import repro.SparkSpec
import repro.util.{JArr, Json}
import repro.wisconsin.WisconsinData
import org.apache.spark.sql.DataFrame

/** MiniMongo aggregation-pipeline semantics on Spark. */
class MiniMongoSpec extends SparkSpec {

  private lazy val data: DataFrame = WisconsinData.generate(spark, 1000).cache()
  private def colls: String => DataFrame = {
    case "wisconsin" | "wisconsin2" => data
    case other                      => fail(s"unknown collection $other")
  }

  private def run(pipeline: String): DataFrame =
    MiniMongo.run(data, Json.parse(pipeline).asInstanceOf[JArr], colls)

  test("empty $match is identity") {
    assert(run("""[{"$match":{}}]""").count() == 1000)
  }

  test("$match with $expr $eq filters") {
    assert(run("""[{"$match":{"$expr":{"$eq":["$ten",4]}}}]""").count() == 100)
  }

  test("$match $expr with $and chain (expression 3)") {
    val p = """[{"$match":{}},{"$match":{"$expr":{"$and":[{"$and":[
              |{"$eq":["$ten",4]},{"$eq":["$twentyPercent",4]}]},
              |{"$eq":["$two",0]}]}}},{"$count":"count"}]""".stripMargin.replace("\n", "")
    assert(run(p).collect().head.getLong(0) == 100L)
  }

  test("$project include list") {
    val df = run("""[{"$match":{}},{"$project":{"two":1,"four":1}}]""")
    assert(df.columns.toSeq == Seq("two", "four"))
  }

  test("$project computed expression") {
    val df = run("""[{"$project":{"is_eq":{"$eq":["$ten",4]}}}]""")
    assert(df.columns.toSeq == Seq("is_eq"))
    assert(df.filter("is_eq").count() == 100)
  }

  test("$project exclusion drops only listed columns") {
    val df = run("""[{"$project":{"stringu1":0,"notthere":0}}]""")
    assert(!df.columns.contains("stringu1"))
    assert(df.columns.contains("unique1"))
  }

  test("$group with key restores via $addFields + drops _id (expression 4)") {
    val df = run(
      """[{"$match":{}},
        |{"$group":{"_id":{"oddOnePercent":"$oddOnePercent"},"count_oddOnePercent":{"$sum":1}}},
        |{"$addFields":{"oddOnePercent":"$_id.oddOnePercent"}},
        |{"$project":{"_id":0}}]""".stripMargin.replace("\n", ""))
    assert(df.columns.toSet == Set("count_oddOnePercent", "oddOnePercent"))
    assert(df.count() == 100)
    assert(df.collect().map(_.getAs[Long]("count_oddOnePercent")).forall(_ == 10L))
  }

  test("$group with empty _id is a global aggregate (expression 6)") {
    val df = run(
      """[{"$match":{}},{"$project":{"unique1":1}},
        |{"$group":{"_id":{},"max":{"$max":"$unique1"}}},
        |{"$project":{"_id":0}}]""".stripMargin.replace("\n", ""))
    assert(df.columns.toSeq == Seq("max"))
    assert(df.collect().head.getLong(0) == 999L)
  }

  test("$group accumulators: min/avg/stdDevPop/sum") {
    val df = run(
      """[{"$group":{"_id":{},"mn":{"$min":"$unique1"},"av":{"$avg":"$two"},
        |"sd":{"$stdDevPop":"$two"},"sm":{"$sum":"$two"}}},{"$project":{"_id":0}}]"""
        .stripMargin.replace("\n", ""))
    val r = df.collect().head
    assert(r.getAs[Long]("mn") == 0L)
    assert(math.abs(r.getAs[Double]("av") - 0.5) < 1e-9)
    assert(math.abs(r.getAs[Double]("sd") - 0.5) < 1e-9)
    assert(r.getAs[Long]("sm") == 500L)
  }

  test("count accumulator via $sum/$cond skips nulls (rewrite count rule)") {
    val df = run(
      """[{"$group":{"_id":{},"c":{"$sum":{"$cond":[{"$gt":["$tenPercent",null]},1,0]}}}},
        |{"$project":{"_id":0}}]""".stripMargin.replace("\n", ""))
    assert(df.collect().head.getLong(0) == 900L)
  }

  test("$sort descending + $limit (expression 9)") {
    val df = run("""[{"$match":{}},{"$sort":{"unique1":-1}},{"$project":{"_id":0}},{"$limit":5}]""")
    assert(df.select("unique1").collect().map(_.getLong(0)).toSeq == Seq(999L, 998L, 997L, 996L, 995L))
  }

  test("$sort ascending") {
    val df = run("""[{"$sort":{"unique1":1}},{"$limit":3}]""")
    assert(df.select("unique1").collect().map(_.getLong(0)).toSeq == Seq(0L, 1L, 2L))
  }

  test("$count returns a single named column") {
    val df = run("""[{"$match":{}},{"$count":"count"}]""")
    assert(df.columns.toSeq == Seq("count"))
    assert(df.collect().head.getLong(0) == 1000L)
  }

  test("missing-data idiom: $lt null selects null/missing (expression 13)") {
    val df = run("""[{"$match":{"$expr":{"$lt":["$tenPercent",null]}}},{"$count":"count"}]""")
    assert(df.collect().head.getLong(0) == 100L)
  }

  test("range via $gte/$lte $and (expression 11)") {
    val p = """[{"$match":{"$expr":{"$and":[{"$gte":["$onePercent",40]},
              |{"$lte":["$onePercent",60]}]}}},{"$count":"count"}]""".stripMargin.replace("\n", "")
    assert(run(p).collect().head.getLong(0) == 210L)
  }

  test("$toUpper in $project (expression 5)") {
    val df = run(
      """[{"$match":{}},{"$project":{"stringu1":1}},
        |{"$project":{"stringu1":{"$toUpper":"$stringu1"}}},
        |{"$project":{"_id":0}},{"$limit":5}]""".stripMargin.replace("\n", ""))
    val vs = df.collect().map(_.getString(0))
    assert(vs.length == 5)
    vs.foreach(s => assert(s == s.toUpperCase && s.endsWith("X" * 45)))
  }

  test("$toInt of a comparison (get_dummies building block)") {
    val df = run("""[{"$project":{"d":{"$toInt":{"$eq":["$string4","A"]}}}}]""")
    assert(df.agg(org.apache.spark.sql.functions.sum("d")).collect().head.getLong(0) == 250L)
  }

  test("arithmetic operators") {
    val df = run("""[{"$project":{"x":{"$add":["$two",10]},"y":{"$mod":["$unique1",7]}}},{"$limit":50}]""")
    df.collect().foreach { r =>
      assert(r.getAs[Long]("x") == 10L || r.getAs[Long]("x") == 11L)
      assert(r.getAs[Long]("y") >= 0 && r.getAs[Long]("y") < 7)
    }
  }

  test("$lookup + $unwind computes the equi-join count (expression 12)") {
    val p =
      """[{"$match":{}},
        |{"$lookup":{"from":"wisconsin2","as":"wisconsin2","let":{"left":"$unique1"},
        |"pipeline":[{"$match":{}},{"$match":{"$expr":{"$eq":["$unique1","$$left"]}}}]}},
        |{"$unwind":{"path":"$wisconsin2","preserveNullAndEmptyArrays":false}},
        |{"$count":"count"}]""".stripMargin.replace("\n", "")
    assert(run(p).collect().head.getLong(0) == 1000L)
  }

  test("$lookup join respects non-matching keys") {
    // join on unique1 = evenOnePercent: only even values 0..198 present on
    // the right side of the predicate; count = matches of u1 in that set.
    val p =
      """[{"$lookup":{"from":"wisconsin2","as":"m","let":{"left":"$unique1"},
        |"pipeline":[{"$match":{"$expr":{"$eq":["$evenOnePercent","$$left"]}}}]}},
        |{"$unwind":{"path":"$m","preserveNullAndEmptyArrays":false}},
        |{"$count":"count"}]""".stripMargin.replace("\n", "")
    // each even v in 0..198 appears 10x as evenOnePercent; left unique1 hits each once
    assert(run(p).collect().head.getLong(0) == 1000L)
  }

  test("a lone $lookup and a $lookup + preserving $unwind raise MongoError") {
    val lookup = """{"$lookup":{"from":"wisconsin2","as":"m","let":{"left":"$unique1"},""" +
      """"pipeline":[{"$match":{"$expr":{"$eq":["$evenOnePercent","$$left"]}}}]}}"""
    intercept[MiniMongo.MongoError](run("[" + lookup + "]"))
    intercept[MiniMongo.MongoError](run("[" + lookup + """,{"$count":"count"}]"""))
    intercept[MiniMongo.MongoError](
      run("[" + lookup + """,{"$unwind":{"path":"$m","preserveNullAndEmptyArrays":true}}]"""))
  }

  test("$project computes nested expressions and bare field paths") {
    val df = run("""[{"$project":{"u":{"$toUpper":{"$toLower":"$string4"}},"k":"$ten",
                    |"s":{"$toString":"$ten"},"x":{"$eq":[{"$add":["$ten",1]},5]}}}]""".stripMargin)
    assert(df.columns.toSeq == Seq("u", "k", "s", "x"))
    df.collect().foreach { r =>
      assert(Set("A", "H", "O", "V").contains(r.getString(0)))
      assert(r.getString(2) == r.get(1).toString)
      assert(r.getBoolean(3) == (r.get(1).toString == "4"))
    }
  }

  test("unsupported stage raises MongoError") {
    intercept[MiniMongo.MongoError](run("""[{"$facet":{}}]"""))
    // a $match other than {} holds only $expr
    intercept[MiniMongo.MongoError](run("""[{"$match":{"ten":4}}]"""))
  }

  test("malformed stage (two keys) raises MongoError") {
    intercept[MiniMongo.MongoError](run("""[{"$match":{},"$limit":1}]"""))
  }
}
