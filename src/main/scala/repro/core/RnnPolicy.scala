package repro.core

import repro.dnn.Net
import scala.util.Random

/** The per-feature RNN agent (Figure 4).
  *
  * The hidden state carries the action probability distribution across
  * generation rounds: h_t = tanh(Wxh·x_t + Whh·h_{t−1} + b), action
  * distribution = softmax(Wo·h_t + bo). Updates follow the paper's loss
  * (Equ. 1): a REINFORCE term weighted by the (λ-)return, an entropy term,
  * and L2 weight decay, optimized with Adam (truncated BPTT of depth 1 —
  * the gradient flows through the current recurrent step only).
  */
final class RnnPolicy(val nActions: Int, val seed: Long = 97L) extends Serializable {

  /** Width of the Engine's per-step input, and hidden units. */
  val inputDim: Int  = 4
  val hiddenDim: Int = 12
  // Adam step size, and the entropy and L2 weights of the loss (Equ. 1).
  private val lr          = 0.01
  private val entropyBeta = 0.01
  private val l2          = 1e-4

  private val rng = new Random(seed)
  private def init(n: Int, scale: Double): Array[Double] =
    Array.fill(n)(rng.nextGaussian() * scale)

  // Parameters (flattened row-major) with per-parameter Adam state.
  val wxh: Array[Double] = init(hiddenDim * inputDim, math.sqrt(1.0 / inputDim))
  val whh: Array[Double] = init(hiddenDim * hiddenDim, math.sqrt(1.0 / hiddenDim))
  val bh: Array[Double]  = Array.fill(hiddenDim)(0.0)
  val wo: Array[Double]  = init(nActions * hiddenDim, math.sqrt(1.0 / hiddenDim))
  val bo: Array[Double]  = Array.fill(nActions)(0.0)

  private val adamWxh = new Net.Adam(wxh.length, lr)
  private val adamWhh = new Net.Adam(whh.length, lr)
  private val adamBh  = new Net.Adam(bh.length, lr)
  private val adamWo  = new Net.Adam(wo.length, lr)
  private val adamBo  = new Net.Adam(bo.length, lr)

  /** One recurrent step: returns (new hidden state, action probabilities). */
  def forward(x: Array[Double], hPrev: Array[Double]): (Array[Double], Array[Double]) = {
    require(x.length == inputDim && hPrev.length == hiddenDim, "dimension mismatch")
    val pre = Array.tabulate(hiddenDim) { j =>
      var s = bh(j)
      var i = 0
      while (i < inputDim) { s += wxh(j * inputDim + i) * x(i); i += 1 }
      var k = 0
      while (k < hiddenDim) { s += whh(j * hiddenDim + k) * hPrev(k); k += 1 }
      s
    }
    val h      = pre.map(math.tanh)
    val logits = Array.tabulate(nActions) { a =>
      var s = bo(a)
      var j = 0
      while (j < hiddenDim) { s += wo(a * hiddenDim + j) * h(j); j += 1 }
      s
    }
    (h, Net.softmax(logits))
  }

  def freshHidden: Array[Double] = Array.fill(hiddenDim)(0.0)

  /** Sample an action index from a probability vector, seeded RNG supplied. */
  def sample(probs: Array[Double], r: Random): Int = {
    val u   = r.nextDouble()
    var acc = 0.0
    var i   = 0
    while (i < probs.length - 1) {
      acc += probs(i)
      if (u < acc) return i
      i += 1
    }
    probs.length - 1
  }

  /** REINFORCE update over an episode with per-step returns `u` (Equ. 1/12).
    * Gradients are accumulated across the episode, then a single Adam step.
    */
  def update(steps: Seq[PolicyStep], u: Seq[Double]): Unit = {
    require(steps.length == u.length, "steps/returns length mismatch")
    if (steps.isEmpty) return
    val gWxh = Array.fill(wxh.length)(0.0)
    val gWhh = Array.fill(whh.length)(0.0)
    val gBh  = Array.fill(bh.length)(0.0)
    val gWo  = Array.fill(wo.length)(0.0)
    val gBo  = Array.fill(bo.length)(0.0)

    steps.zip(u).foreach { case (PolicyStep(x, hPrev, a), ret) =>
      val (h, probs) = forward(x, hPrev)
      // Entropy of the distribution (the paper's log(h)*h term).
      var ent = 0.0
      probs.foreach(p => if (p > 1e-12) ent -= p * math.log(p))
      // dLoss/dlogits: REINFORCE + entropy.
      val dLogits = Array.tabulate(nActions) { j =>
        val reinforce = (probs(j) - (if (j == a) 1.0 else 0.0)) * ret
        val entropyG  = entropyBeta * probs(j) * (math.log(math.max(probs(j), 1e-12)) + ent)
        reinforce + entropyG
      }
      // Backprop into output layer and one recurrent step.
      val dH = Array.fill(hiddenDim)(0.0)
      var j  = 0
      while (j < nActions) {
        gBo(j) += dLogits(j)
        var k = 0
        while (k < hiddenDim) {
          gWo(j * hiddenDim + k) += dLogits(j) * h(k)
          dH(k) += dLogits(j) * wo(j * hiddenDim + k)
          k += 1
        }
        j += 1
      }
      var k = 0
      while (k < hiddenDim) {
        val dPre = dH(k) * (1 - h(k) * h(k))
        gBh(k) += dPre
        var i = 0
        while (i < inputDim) { gWxh(k * inputDim + i) += dPre * x(i); i += 1 }
        var m = 0
        while (m < hiddenDim) { gWhh(k * hiddenDim + m) += dPre * hPrev(m); m += 1 }
        k += 1
      }
    }

    // L2 decay (the ||θ||² term).
    def addL2(g: Array[Double], p: Array[Double]): Unit = {
      var i = 0
      while (i < g.length) { g(i) += 2 * l2 * p(i); i += 1 }
    }
    addL2(gWxh, wxh); addL2(gWhh, whh); addL2(gWo, wo)

    adamWxh.step(wxh, gWxh); adamWhh.step(whh, gWhh); adamBh.step(bh, gBh)
    adamWo.step(wo, gWo); adamBo.step(bo, gBo)
  }
}

/** One observed (input, previous hidden state, sampled action) step, recorded
  * during generation and replayed for the policy update.
  */
final case class PolicyStep(x: Array[Double], hPrev: Array[Double], action: Int)

/** Return computations (Equ. 9–10). */
object Returns {

  /** Discounted return-to-go: U_t = Σ_k γ^k r_{t+k}. */
  def discounted(rewards: Seq[Double], gamma: Double): Array[Double] = {
    val out = new Array[Double](rewards.length)
    var acc = 0.0
    var t   = rewards.length - 1
    while (t >= 0) { acc = rewards(t) + gamma * acc; out(t) = acc; t -= 1 }
    out
  }

  /** Forward-view λ-return over truncated n-step (no-bootstrap) returns:
    * U^λ_t = (1−λ) Σ_{n<T−t} λ^{n−1} U_t^{(n)} + λ^{T−t−1} U_t^{(T−t)}.
    */
  def lambdaReturns(rewards: Seq[Double], gamma: Double, lambda: Double): Array[Double] = {
    val T = rewards.length
    Array.tabulate(T) { t =>
      val horizon = T - t
      var acc     = 0.0
      var nStep   = 0.0
      var g       = 1.0
      var n       = 1
      var lam     = 1.0
      var total   = 0.0
      while (n <= horizon) {
        nStep += g * rewards(t + n - 1)
        g *= gamma
        if (n < horizon) { acc += (1 - lambda) * lam * nStep } else { total = lam * nStep }
        lam *= lambda
        n += 1
      }
      acc + total
    }
  }
}
