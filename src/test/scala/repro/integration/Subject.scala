package repro.integration

import repro.core.Frame

/** A system under test: two frames of one kind (PolyFrame on a connector,
  * or EagerFrame), so one program, `s => s.df.filter(p).count()`, runs on
  * every system.
  */
abstract class Subject(val name: String) {
  type F <: Frame[F]
  def df: F
  /** The right side of a join. */
  def df2: F
}

object Subject {
  def apply[G <: Frame[G]](name: String, left: G, right: G): Subject = new Subject(name) {
    type F = G
    def df: G  = left
    def df2: G = right
  }
}
