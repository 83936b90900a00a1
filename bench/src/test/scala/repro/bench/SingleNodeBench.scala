package repro.bench

import java.nio.file.{Files, Paths, StandardOpenOption}
import org.scalatest.funsuite.AnyFunSuite
import Benchmark._

/** Reproduces the single-node evaluation: Table IV's XS-XL datasets
  * (×0.04 scale), the 13 Table III expressions, total vs expression-only
  * timings (Figs 5-8), and the 'Empty' baseline for expressions 2/10.
  *
  * Asserted shape (paper §IV-E-1): the eager Pandas baseline OOMs on
  * M/L/XL while every PolyFrame variant completes everything; PolyFrame
  * has ~zero creation time while Pandas' creation dominates; MiniCypher
  * answers expression 1 from metadata.
  */
class SingleNodeBench extends AnyFunSuite {

  test("single-node benchmark — Figs 5-8 analogue") {
    val spark = Runners.newSession()
    try {
      val reports = Runners.singleNode(spark)
      val empty   = Runners.emptyBaseline(spark)

      val sb = new StringBuilder
      reports.foreach { rep =>
        sb.append(rep.table(total = true)).append('\n')
        sb.append(rep.table(total = false)).append('\n')
      }
      sb.append(empty.table(total = false, exprs = Seq(2, 10))).append('\n')
      println(sb.toString)
      BenchOutput.save("single_node.txt", sb.toString)

      val bySize = reports.map(r => r.runs.head.dataset -> r.runs).toMap

      // Pandas completes XS and S, OOMs on M, L, XL (creation-time OOM)
      for (size <- Seq("XS", "S")) {
        val eager = bySize(size).find(_.system.startsWith("Pandas")).get
        assert(eager.creation.isInstanceOf[Ok], s"eager should load $size")
        (1 to 13).foreach(i => assert(eager.exprs(i).isInstanceOf[Ok], s"eager $size expr $i"))
      }
      for (size <- Seq("M", "L", "XL")) {
        val eager = bySize(size).find(_.system.startsWith("Pandas")).get
        assert(eager.creation == Oom, s"eager should OOM on $size")
        (1 to 13).foreach(i => assert(eager.exprs(i) == Oom, s"eager $size expr $i should be OOM"))
      }

      // every PolyFrame variant completes every expression at every size
      for (rep <- reports; run <- rep.runs if run.system.startsWith("PolyFrame")) {
        assert(run.creation.isInstanceOf[Ok], s"${run.system} ${run.dataset} creation")
        (1 to 13).foreach(i =>
          assert(run.exprs(i).isInstanceOf[Ok], s"${run.system} ${run.dataset} expr $i"))
      }

      // PolyFrame creation is metadata-only: orders of magnitude below eager
      for (size <- Seq("XS", "S")) {
        val eagerCreate = bySize(size).find(_.system.startsWith("Pandas")).get
          .creation.asInstanceOf[Ok].seconds
        bySize(size).filter(_.system.startsWith("PolyFrame")).foreach { run =>
          val c = run.creation.asInstanceOf[Ok].seconds
          assert(c < eagerCreate, s"${run.system} creation $c !< eager $eagerCreate at $size")
        }
      }

      // Neo4j-style metadata count: expr 1 on MiniCypher is ~instant
      for (rep <- reports) {
        val cy = rep.runs.find(_.system.contains("MiniCypher")).get
        assert(cy.exprs(1).asInstanceOf[Ok].seconds < 0.25,
          s"metadata count not instant at ${rep.runs.head.dataset}")
      }

      // deterministic digests agree across systems where defined
      for (rep <- reports; i <- Seq(1, 3, 11, 12, 13)) {
        val digests = rep.runs.collect {
          case r if r.exprs(i).isInstanceOf[Ok] =>
            r.exprs(i).asInstanceOf[Ok].digest.toString.toDouble.toLong
        }
        assert(digests.distinct.size == 1, s"digest mismatch expr $i: $digests")
      }
    } finally spark.stop()
  }
}

object BenchOutput {
  /** Persist a bench table under bench/results/ for EXPERIMENTS.md. The
    * forked bench JVM's cwd is the subproject dir (bench/); a run from the
    * repo root sees build.sbt and writes under bench/results.
    */
  def save(name: String, content: String): Unit = {
    val dir = Paths.get(if (Files.exists(Paths.get("build.sbt"))) "bench/results" else "results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(name), content.getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
