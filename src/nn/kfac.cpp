#include "nn/kfac.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "nn/gemm.hpp"

namespace dosc::nn {

namespace {

double trace(const Matrix& m) noexcept {
  double t = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) t += m(i, i);
  return t;
}

}  // namespace

void Kfac::update_factors(Mlp& net) {
  auto& layers = net.layers();
  if (factors_.size() != layers.size()) factors_.resize(layers.size());

  for (std::size_t li = 0; li < layers.size(); ++li) {
    if (net.layer_input(li).empty() || layers[li].grad_preact.empty()) {
      throw std::logic_error("Kfac::update_factors: no cached forward/backward pass");
    }
  }

  // One layer at a time; the kernels inside, above all the two Gram
  // products, split their own work across the compute pool. Nothing below
  // throws or allocates at steady state.
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const DenseLayer& layer = layers[li];
    LayerFactors& f = factors_[li];
    const Matrix& input = net.layer_input(li);
    const std::size_t batch_n = input.rows();
    const std::size_t in = input.cols();
    const double batch = static_cast<double>(batch_n);
    const double* x = input.data();

    // A_batch = augᵀ aug / batch with aug = [X | 1], computed without
    // materialising aug: the in x in block is Xᵀ X written into the top-left
    // of the (in+1)-wide destination, the border is X's column sums (ā's
    // last coordinate is exactly 1), and the corner is the batch size.
    Matrix& ab = f.a_batch;
    ab.ensure_shape(in + 1, in + 1);
    gemm::gram(in, batch_n, x, in, ab.data(), in + 1);
    f.sums.ensure_shape(1, in);
    f.sums.fill(0.0);
    add_column_sums(f.sums, input);
    for (std::size_t j = 0; j < in; ++j) ab(in, j) = ab(j, in) = f.sums(0, j);
    ab(in, in) = batch;
    for (std::size_t i = 0; i < ab.size(); ++i) ab.data()[i] /= batch;

    Matrix& gb = f.g_batch;
    const Matrix& gp = layer.grad_preact;
    gb.ensure_shape(gp.cols(), gp.cols());
    gemm::gram(gp.cols(), gp.rows(), gp.data(), gp.cols(), gb.data(), gb.cols());
    // The Fisher uses per-sample gradient outer products scaled by the
    // batch; grad_preact already carries the 1/batch loss scaling applied
    // by the trainer, so rescale to per-sample magnitude.
    for (std::size_t i = 0; i < gb.size(); ++i) {
      gb.data()[i] *= batch * config_.fisher_coef;
    }

    if (!f.initialised) {
      f.a = ab;
      f.g = gb;
      f.initialised = true;
    } else {
      ema_update(f.a, ab, config_.ema_decay);
      ema_update(f.g, gb, config_.ema_decay);
    }
  }
}

void Kfac::step(Mlp& net) {
  auto& layers = net.layers();
  if (factors_.size() != layers.size()) {
    throw std::logic_error("Kfac::step: call update_factors first");
  }
  for (const LayerFactors& f : factors_) {
    if (!f.initialised) throw std::logic_error("Kfac::step: factors not initialised");
  }

  // Per-layer natural gradient v_l = A⁻¹ Ḡ_l G⁻¹ with factored damping
  // (pi-splitting, Martens & Grosse 2015). The damped A and G of every
  // layer are factored at once, one factorisation per chunk of a single
  // fork: a factorisation of order 256 is too short to split, but whole
  // ones keep every pool thread busy. The solves and GEMMs after it, one
  // layer at a time, split their own work. Every intermediate lives in the
  // layer's workspaces, so the step allocates nothing at steady state.
  const double damp = std::sqrt(config_.damping);
  const auto pi_of = [](const LayerFactors& f) {
    const double tr_a = std::max(trace(f.a) / static_cast<double>(f.a.rows()), 1e-12);
    const double tr_g = std::max(trace(f.g) / static_cast<double>(f.g.rows()), 1e-12);
    return std::sqrt(tr_a / tr_g);
  };
  // A chunk must not throw across the pool: a factor that fails even with
  // the damping retries is recorded and rethrown after the join.
  std::atomic<bool> failed{false};
  parallel_chunks(2 * layers.size(), [&](std::size_t i) {
    LayerFactors& f = factors_[i / 2];
    const double pi = pi_of(f);
    try {
      if (i % 2 == 0) {
        cholesky_factor(f.chol_a, f.a, pi * damp);
      } else {
        cholesky_factor(f.chol_g, f.g, damp / pi);
      }
    } catch (const std::runtime_error&) {
      failed.store(true, std::memory_order_relaxed);
    }
  });
  if (failed.load(std::memory_order_relaxed)) {
    throw std::runtime_error("cholesky_solve: matrix not positive definite");
  }

  for (std::size_t li = 0; li < layers.size(); ++li) {
    const DenseLayer& layer = layers[li];
    LayerFactors& f = factors_[li];
    const std::size_t in = layer.fan_in();
    const std::size_t out = layer.fan_out();

    // Stack weight and bias gradients into the combined [(in+1) x out]
    // block matching the augmented-input convention, then solve it in
    // place: A⁻¹ Ḡ column by column, then (A⁻¹ Ḡ) G⁻¹ row by row, which
    // is G⁻¹ (A⁻¹ Ḡ)ᵀ transposed (G is symmetric) without the transposes.
    Matrix& v = f.natural;
    v.ensure_shape(in + 1, out);
    std::copy(layer.grad_weights.data(), layer.grad_weights.data() + in * out, v.data());
    std::copy(layer.grad_bias.data(), layer.grad_bias.data() + out, v.data() + in * out);
    cholesky_substitute(f.chol_a, v);
    cholesky_substitute_right(f.chol_g, v);

    // vᵀ F v ≈ tr(vᵀ A v G): cheap via the already-damped solves' inputs.
    matmul_into(f.av, f.a, v);
    matmul_into(f.avg, f.av, f.g);
    f.quadratic = dot(v, f.avg);
  }

  // vᵀ F̂ v, accumulated across layers in layer order.
  double quadratic = 0.0;
  for (const LayerFactors& f : factors_) quadratic += f.quadratic;

  // Trust region: eta = min(lr, sqrt(2 * kl_clip / (vᵀ F v))), plus a
  // Euclidean cap on the total step size.
  double eta = learning_rate_;
  if (quadratic > 0.0) {
    eta = std::min(eta, std::sqrt(2.0 * config_.kl_clip / quadratic));
  }
  double v_norm_sq = 0.0;
  for (const LayerFactors& f : factors_) v_norm_sq += dot(f.natural, f.natural);
  const double v_norm = std::sqrt(v_norm_sq);
  if (v_norm * eta > config_.step_norm_cap && v_norm > 0.0) {
    eta = config_.step_norm_cap / v_norm;
  }

  for (std::size_t li = 0; li < layers.size(); ++li) {
    DenseLayer& layer = layers[li];
    const Matrix& v = factors_[li].natural;
    for (std::size_t i = 0; i < layer.fan_in(); ++i) {
      for (std::size_t j = 0; j < layer.fan_out(); ++j) {
        layer.weights(i, j) -= eta * v(i, j);
      }
    }
    for (std::size_t j = 0; j < layer.fan_out(); ++j) {
      layer.bias(0, j) -= eta * v(layer.fan_in(), j);
    }
  }
}

}  // namespace dosc::nn
