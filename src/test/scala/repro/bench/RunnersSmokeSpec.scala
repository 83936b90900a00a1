package repro.bench

import repro.SparkSpec
import repro.bench.Benchmark.Ok
import repro.core.LocalResult

/** The single-node bench driver end to end on a tiny dataset: a backend
  * that fails must fail the run, not vanish into a warm-up.
  */
class RunnersSmokeSpec extends SparkSpec {

  test("singleNode and emptyBaseline complete every PolyFrame cell, deterministic digests agree") {
    val Seq(report) = Runners.singleNode(spark, Seq("T" -> 2000L))
    val polyFrame = report.runs.filter(_.system.startsWith("PolyFrame"))
    assert(polyFrame.size == 4)
    polyFrame.foreach { r =>
      assert(r.creation.isInstanceOf[Ok], r.system)
      (1 to 13).foreach(i => assert(r.exprs(i).isInstanceOf[Ok], s"${r.system} expr $i: ${r.exprs(i)}"))
    }
    Seq(1, 3, 11, 12, 13).foreach { i =>
      val digests = report.runs.map(_.exprs(i)).collect { case Ok(_, d) => LocalResult.normalize(d) }
      assert(digests.size == report.runs.size, s"expr $i: ${report.runs.map(_.exprs(i))}")
      assert(digests.distinct.size == 1, s"expr $i digests disagree: $digests")
    }

    val empty = Runners.emptyBaseline(spark)
    assert(empty.runs.map(_.system).toSet == polyFrame.map(_.system).toSet)
    empty.runs.foreach(r => Seq(2, 10).foreach(i => assert(r.exprs(i).isInstanceOf[Ok], s"${r.system} expr $i")))
  }
}
