package repro.dnn

import repro.ml.{Model, Standardizer}
import scala.util.Random

/** Minimal dense neural-network substrate: layers with manual backprop and a
  * per-parameter Adam optimizer. Per-sample (stochastic) updates — the
  * datasets here are small, so minibatching buys nothing but complexity.
  */
object Net {

  /** Per-parameter Adam state (Kingma & Ba 2014), the optimizer the paper
    * uses, with the paper's β₁ = 0.9, β₂ = 0.999 and ε = 1e-8.
    */
  final class Adam(size: Int, val lr: Double = 1e-2) extends Serializable {
    private val beta1 = 0.9
    private val beta2 = 0.999
    private val eps   = 1e-8
    private val m = Array.fill(size)(0.0)
    private val v = Array.fill(size)(0.0)
    private var t = 0

    def step(params: Array[Double], grads: Array[Double]): Unit = {
      t += 1
      val bc1 = 1 - math.pow(beta1, t)
      val bc2 = 1 - math.pow(beta2, t)
      var i   = 0
      while (i < params.length) {
        m(i) = beta1 * m(i) + (1 - beta1) * grads(i)
        v(i) = beta2 * v(i) + (1 - beta2) * grads(i) * grads(i)
        params(i) -= lr * (m(i) / bc1) / (math.sqrt(v(i) / bc2) + eps)
        i += 1
      }
    }
  }

  sealed trait Layer extends Serializable {
    def forward(x: Array[Double]): Array[Double]
    /** Backprop: consume dL/d(output), accumulate parameter grads, return dL/d(input). */
    def backward(dOut: Array[Double]): Array[Double]
    def step(): Unit
  }

  /** Fully-connected layer, He-initialized, with its own Adam state (default rate). */
  final class Dense(val in: Int, val out: Int, seed: Long) extends Layer {
    val w: Array[Double] = {
      val rng   = new Random(seed)
      val scale = math.sqrt(2.0 / in)
      Array.fill(out * in)(rng.nextGaussian() * scale)
    }
    val b: Array[Double]         = Array.fill(out)(0.0)
    private val gw               = Array.fill(out * in)(0.0)
    private val gb               = Array.fill(out)(0.0)
    private val adamW            = new Adam(out * in)
    private val adamB            = new Adam(out)
    private var lastX: Array[Double] = _

    override def forward(x: Array[Double]): Array[Double] = {
      lastX = x
      val y = Array.fill(out)(0.0)
      var o = 0
      while (o < out) {
        var s = b(o)
        var i = 0
        while (i < in) { s += w(o * in + i) * x(i); i += 1 }
        y(o) = s
        o += 1
      }
      y
    }

    override def backward(dOut: Array[Double]): Array[Double] = {
      val dIn = Array.fill(in)(0.0)
      var o   = 0
      while (o < out) {
        val d = dOut(o)
        gb(o) += d
        var i = 0
        while (i < in) {
          gw(o * in + i) += d * lastX(i)
          dIn(i) += d * w(o * in + i)
          i += 1
        }
        o += 1
      }
      dIn
    }

    override def step(): Unit = {
      adamW.step(w, gw); adamB.step(b, gb)
      java.util.Arrays.fill(gw, 0.0); java.util.Arrays.fill(gb, 0.0)
    }
  }

  final class ReLU extends Layer {
    private var mask: Array[Boolean] = _
    override def forward(x: Array[Double]): Array[Double] = {
      mask = x.map(_ > 0)
      x.map(v => if (v > 0) v else 0.0)
    }
    override def backward(dOut: Array[Double]): Array[Double] =
      Array.tabulate(dOut.length)(i => if (mask(i)) dOut(i) else 0.0)
    override def step(): Unit = ()
  }

  /** Residual block: y = x + Dense2(ReLU(Dense1(x))) — the RTDL ResNet cell. */
  final class ResBlock(dim: Int, hidden: Int, seed: Long) extends Layer {
    private val d1   = new Dense(dim, hidden, seed)
    private val relu = new ReLU
    private val d2   = new Dense(hidden, dim, seed ^ 0x5DEECE66DL)

    override def forward(x: Array[Double]): Array[Double] = {
      val f = d2.forward(relu.forward(d1.forward(x)))
      Array.tabulate(dim)(i => x(i) + f(i))
    }
    override def backward(dOut: Array[Double]): Array[Double] = {
      val dBranch = d1.backward(relu.backward(d2.backward(dOut)))
      Array.tabulate(dim)(i => dOut(i) + dBranch(i))
    }
    override def step(): Unit = { d1.step(); d2.step() }
  }

  final class Sequential(val layers: Array[Layer]) extends Serializable {
    def forward(x: Array[Double]): Array[Double] = layers.foldLeft(x)((h, l) => l.forward(h))
    def backward(dOut: Array[Double]): Array[Double] =
      layers.reverseIterator.foldLeft(dOut)((g, l) => l.backward(g))
    def step(): Unit = layers.foreach(_.step())
  }

  def softmax(z: Array[Double]): Array[Double] = {
    val m = z.max
    val e = z.map(v => math.exp(v - m))
    val s = e.sum
    e.map(_ / s)
  }

  /** Softmax-CE gradient wrt logits for target class k: p − onehot(k). */
  def ceGrad(logits: Array[Double], k: Int): (Double, Array[Double]) = {
    val p    = softmax(logits)
    val loss = -math.log(math.max(p(k), 1e-12))
    val g    = p.clone()
    g(k) -= 1.0
    (loss, g)
  }

  /** A trained net over standardized inputs: `features` is the body's output
    * (the penultimate representation), `predict` the head's class or target.
    * Regression heads predict standardized targets; `target` maps them back.
    */
  final class Fitted private[dnn] (
      body: Sequential,
      head: Dense,
      scaler: Standardizer,
      classes: Array[Double],
      target: Option[Standardizer],
  ) extends Model {
    def features(x: Array[Double]): Array[Double] = body.forward(scaler(x))

    override def predict(x: Array[Double]): Double = {
      val out = head.forward(features(x))
      target match {
        case None    => classes(out.indices.maxBy(out(_)))
        case Some(t) => out(0) * t.std(0) + t.mean(0)
      }
    }
  }

  /** Trains `body` and `head` jointly with per-sample Adam steps for
    * `epochs` shuffled passes: softmax-CE over the sorted distinct labels for
    * classification, MSE on standardized targets for regression. `body` gets
    * the input width, `head` the number of outputs.
    */
  def train(
      x: Array[Array[Double]],
      y: Array[Double],
      classification: Boolean,
      body: Int => Array[Layer],
      head: Int => Dense,
      epochs: Int,
      seed: Long,
  ): Fitted = {
    require(x.nonEmpty && x.length == y.length, "empty or mismatched training data")
    val scaler  = new Standardizer(x)
    val z       = x.map(scaler(_))
    val rng     = new Random(seed)
    val net     = new Sequential(body(x(0).length))
    val classes = if (classification) y.distinct.sorted else Array.empty[Double]
    val target  = if (classification) None else Some(new Standardizer(y.map(Array(_))))
    val out     = head(if (classification) classes.length else 1)
    // dLoss/dOutput for training row i.
    val lossGrad: (Array[Double], Int) => Array[Double] = target match {
      case None =>
        val idxOf = classes.zipWithIndex.toMap
        (o, i) => ceGrad(o, idxOf(y(i)))._2
      case Some(t) =>
        val ts = y.map(v => (v - t.mean(0)) / t.std(0))
        (o, i) => Array(2 * (o(0) - ts(i)))
    }
    for (_ <- 0 until epochs) {
      rng.shuffle(z.indices.toList).foreach { i =>
        val o = out.forward(net.forward(z(i)))
        net.backward(out.backward(lossGrad(o, i)))
        out.step(); net.step()
      }
    }
    new Fitted(net, out, scaler, classes, target)
  }
}
