package repro.core

import scala.util.Random

/** AutoFS_R's RL subset search, shared by the FS_R method and DL|FE. Each
  * round keeps item j with probability probs(j), starting at 0.7 (items
  * j < `fixed` are always kept and draw nothing), scores the kept subset, and
  * moves each free probability by 0.3 × advantage toward the choice just
  * made, clamped to [0.05, 0.95]. The advantage's baseline is a 0.8/0.2
  * running mean of the scores, started at `baseline`. Returns every round's
  * (kept indices, score), in order.
  */
object SubsetSearch {
  def run(size: Int, fixed: Int, rounds: Int, baseline: Double, rng: Random)(
      score: IndexedSeq[Int] => Double): Seq[(IndexedSeq[Int], Double)] = {
    val probs = Array.fill(size)(0.7)
    var meanS = baseline
    (0 until rounds).map { _ =>
      val include = probs.indices.map(j => j < fixed || rng.nextDouble() < probs(j))
      val keep    = probs.indices.filter(include)
      val s       = score(keep)
      val adv     = s - meanS
      (fixed until size).foreach { j =>
        probs(j) = math.min(0.95, math.max(0.05, probs(j) + 0.3 * adv * (if (include(j)) 1 else -1)))
      }
      meanS = 0.8 * meanS + 0.2 * s
      keep -> s
    }
  }
}
