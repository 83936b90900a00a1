package repro.core

/** The dataframe verbs PolyFrame and its eager Pandas baseline
  * ([[repro.eager.EagerFrame]]) share, so one program, such as a Table III
  * expression, is written once and runs on every connector and on the
  * baseline. Transformations return the same kind of frame; actions return
  * local values.
  */
trait Frame[F <: Frame[F]] {

  /** Project attributes — `df[['a','b']]`. */
  def select(attrs: String*): F

  /** Single-attribute series — `df['a']`. */
  def apply(attr: String): F

  /** Row selection — `df[cond]`. */
  def filter(cond: PFExpr): F

  /** Element-wise function over a series — `df['s'].map(str.upper)`. */
  def map(fn: String): F

  /** Sort — `df.sort_values(attr, ascending)`; Pandas puts missing values last. */
  def sortValues(attr: String, ascending: Boolean = true): F

  /** Inner equi-join — `pd.merge(df, right, left_on, right_on)`. */
  def join(right: F, leftOn: String, rightOn: String): F

  /** Group by — `df.groupby(keys)`, combined with [[Frame.Grouped.agg]]. */
  def groupBy(keys: String*): Frame.Grouped[F]

  /** The first n rows. */
  def head(n: Int = 5): LocalResult

  /** Every row. */
  def collectAll(): LocalResult

  /** `len(df)`. */
  def count(): Long

  /** Greatest present value of a series. */
  def max(): Double

  /** Least present value of a series. */
  def min(): Double
}

object Frame {

  /** `df.groupby(keys)` waiting for its aggregate. */
  trait Grouped[F] {

    /** `agg(fn)` over the group key(s), as the paper's expression 4 does. */
    def agg(fn: String): F

    /** `groupby(keys)[attr].agg(fn)`. */
    def agg(fn: String, attr: String): F
  }
}
