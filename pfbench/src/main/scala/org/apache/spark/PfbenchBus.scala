package org.apache.spark

/** Access to Spark's listener bus, which is package-private: the benchmark
  * drains it so listener counters are complete before they are read.
  */
object PfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
