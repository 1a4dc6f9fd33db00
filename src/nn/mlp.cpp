#include "nn/mlp.hpp"

#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/gemv.hpp"
#include "nn/parallel.hpp"
#include "nn/vecmath.hpp"

namespace dosc::nn {

/// Packed gemv panels for every layer, built lazily on first predict_row and
/// invalidated by weight mutation (non-const layers(), set_parameters, copy
/// assignment). `valid` is the publication flag: readers acquire-load it and
/// only fall into the mutex on a miss, so the steady-state fast path is one
/// atomic load.
struct Mlp::PackCache {
  std::mutex mu;
  std::atomic<bool> valid{false};
  std::vector<gemv::AlignedBuffer> panels;      ///< per-layer gemv pack
  std::vector<gemv::AlignedBuffer> gemm_slabs;  ///< per-layer gemm B pack
};

namespace {

/// The one layer layout: zeroed weights, bias and gradients of every layer,
/// `hidden` activations and `output` on the last layer.
std::vector<DenseLayer> make_layers(const std::vector<std::size_t>& sizes, Activation hidden,
                                    Activation output) {
  if (sizes.size() < 2) throw std::invalid_argument("Mlp: need at least in+out sizes");
  std::vector<DenseLayer> layers(sizes.size() - 1);
  for (std::size_t i = 0; i < layers.size(); ++i) {
    DenseLayer& layer = layers[i];
    layer.weights = Matrix(sizes[i], sizes[i + 1]);
    layer.bias = Matrix(1, sizes[i + 1]);
    layer.grad_weights = Matrix(sizes[i], sizes[i + 1]);
    layer.grad_bias = Matrix(1, sizes[i + 1]);
    layer.activation = (i + 1 == layers.size()) ? output : hidden;
  }
  return layers;
}

}  // namespace

Mlp::Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden, Activation output,
         std::uint64_t seed, double head_stddev)
    : layers_(make_layers(layer_sizes, hidden, output)), pack_(std::make_unique<PackCache>()) {
  util::Rng rng(seed);
  for (DenseLayer& layer : layers_) {
    layer.weights = (&layer == &layers_.back())
                        ? Matrix::scaled_normal(layer.fan_in(), layer.fan_out(), head_stddev, rng)
                        : Matrix::xavier(layer.fan_in(), layer.fan_out(), rng);
  }
}

Mlp::Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden, Activation output,
         std::span<const double> parameters)
    : layers_(make_layers(layer_sizes, hidden, output)), pack_(std::make_unique<PackCache>()) {
  set_parameters(parameters);
}

std::size_t Mlp::parameter_count(const std::vector<std::size_t>& layer_sizes) noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i + 1 < layer_sizes.size(); ++i) {
    n += (layer_sizes[i] + 1) * layer_sizes[i + 1];
  }
  return n;
}

Mlp::Mlp(const Mlp& other) : layers_(other.layers_), pack_(std::make_unique<PackCache>()) {}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  layers_ = other.layers_;
  if (pack_) {
    invalidate_pack();
  } else {
    pack_ = std::make_unique<PackCache>();  // this was moved-from
  }
  return *this;
}

Mlp::Mlp(Mlp&&) noexcept = default;
Mlp& Mlp::operator=(Mlp&&) noexcept = default;
Mlp::~Mlp() = default;

void Mlp::invalidate_pack() noexcept {
  if (pack_) pack_->valid.store(false, std::memory_order_release);
}

const Mlp::PackCache& Mlp::ensure_packed() const {
  PackCache& cache = *pack_;
  if (!cache.valid.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(cache.mu);
    if (!cache.valid.load(std::memory_order_relaxed)) {
      cache.panels.resize(layers_.size());
      cache.gemm_slabs.resize(layers_.size());
      for (std::size_t i = 0; i < layers_.size(); ++i) {
        const DenseLayer& layer = layers_[i];
        cache.panels[i].resize(gemv::packed_size(layer.fan_in(), layer.fan_out()));
        gemv::pack(layer.fan_in(), layer.fan_out(), layer.weights.data(),
                   cache.panels[i].data());
        // Pre-packed B slab for predict_batch: the per-call pack inside
        // gemm::nn is O(k*n) per layer per forward, which at rollout batch
        // sizes (a handful of rows) rivals the product itself.
        cache.gemm_slabs[i].resize(gemm::packed_b_size(layer.fan_in(), layer.fan_out()));
        gemm::pack_b(layer.fan_in(), layer.fan_out(), layer.weights.data(),
                     layer.fan_out(), cache.gemm_slabs[i].data());
      }
      cache.valid.store(true, std::memory_order_release);
    }
  }
  return cache;
}

void Mlp::apply_activation(double* v, std::size_t count, Activation act) noexcept {
  switch (act) {
    case Activation::kLinear: return;
    case Activation::kTanh:
      vecmath::tanh_inplace(v, count);
      return;
    case Activation::kRelu:
      for (std::size_t i = 0; i < count; ++i) v[i] = std::max(0.0, v[i]);
      return;
  }
}

namespace {

/// fn(begin, end) over element ranges of m made of whole rows, split across
/// the compute pool. For per-element work (bias, activation and its
/// derivative) the split changes no bits.
template <typename Fn>
void for_row_ranges(const Matrix& m, Fn&& fn) {
  constexpr std::size_t kMinElementsPerChunk = 64 * 1024;
  const std::size_t cols = std::max<std::size_t>(1, m.cols());
  parallel_for_rows(m.rows(), std::max<std::size_t>(1, kMinElementsPerChunk / cols), 1,
                    [&](std::size_t row0, std::size_t row1) { fn(row0 * cols, row1 * cols); });
}

}  // namespace

const Matrix& Mlp::forward(const Matrix& x) {
  const Matrix* h = &x;
  for (DenseLayer& layer : layers_) {
    layer.input = *h;  // copy-assign reuses the cache's existing capacity
    matmul_into(layer.output, *h, layer.weights);
    double* out = layer.output.data();
    const double* bias = layer.bias.data();
    const std::size_t n_out = layer.fan_out();
    for_row_ranges(layer.output, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; i += n_out) {
        for (std::size_t j = 0; j < n_out; ++j) out[i + j] += bias[j];
      }
      apply_activation(out + begin, end - begin, layer.activation);
    });
    h = &layer.output;
  }
  return layers_.back().output;
}

Matrix Mlp::predict(const Matrix& x) const {
  Matrix h = x;
  for (const DenseLayer& layer : layers_) {
    h = matmul(h, layer.weights);
    add_row_vector(h, layer.bias);
    apply_activation(h.data(), h.size(), layer.activation);
  }
  return h;
}

void Mlp::predict_row(std::span<const double> input, std::vector<double>& out,
                      Scratch& scratch) const {
  if (input.size() != input_size()) throw std::invalid_argument("predict_row: input size");
  const PackCache& cache = ensure_packed();
  const double* cur = input.data();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const DenseLayer& layer = layers_[li];
    double* dst;
    if (li + 1 == layers_.size()) {
      out.resize(layer.fan_out());
      dst = out.data();
    } else {
      std::vector<double>& buf = (li % 2 == 0) ? scratch.a : scratch.b;
      if (buf.size() < layer.fan_out()) buf.resize(layer.fan_out());
      dst = buf.data();
    }
    gemv::bias_act(layer.fan_in(), layer.fan_out(), cur, cache.panels[li].data(),
                   layer.bias.data(), static_cast<int>(layer.activation), dst);
    cur = dst;
  }
}

void Mlp::predict_batch(const double* input, std::size_t batch, std::vector<double>& out,
                        BatchScratch& scratch) const {
  if (batch == 0) {
    out.clear();
    return;
  }
  const PackCache& cache = ensure_packed();
  // Layer li writes row r at dst[li] + r * ld[li]: hidden layers alternate
  // between the two scratch blocks, each with the row stride of its widest
  // layer, and the last layer writes `out`. Everything is sized here,
  // before the fork, so every chunk works in its own rows and none
  // allocates.
  const std::size_t last = layers_.size() - 1;
  std::size_t stride[2] = {0, 0};
  std::size_t row_macs = 0;
  for (std::size_t li = 0; li <= last; ++li) {
    if (li < last) stride[li % 2] = std::max(stride[li % 2], layers_[li].fan_out());
    row_macs += layers_[li].fan_in() * layers_[li].fan_out();
  }
  if (scratch.a.size() < batch * stride[0]) scratch.a.resize(batch * stride[0]);
  if (scratch.b.size() < batch * stride[1]) scratch.b.resize(batch * stride[1]);
  out.resize(batch * output_size());
  const auto dst = [&](std::size_t li) {
    return li == last ? out.data() : (li % 2 == 0 ? scratch.a.data() : scratch.b.data());
  };
  const auto ld = [&](std::size_t li) { return li == last ? output_size() : stride[li % 2]; };

  // Whole register tiles go through the GEMM over the packed slabs with the
  // operation order of predict() (matmul, bias row add, activation); the
  // batch's 1-3 trailing rows take the packed GEMV, which beats the GEMM's
  // partial-tile edge and is bit-identical per row.
  const auto forward_rows = [&](std::size_t row0, std::size_t row1) {
    const std::size_t tile_end = row0 + (row1 - row0) / kTileRows * kTileRows;
    if (tile_end > row0) {
      const std::size_t rows = tile_end - row0;
      const double* cur = input + row0 * input_size();
      std::size_t ld_cur = input_size();
      for (std::size_t li = 0; li <= last; ++li) {
        const DenseLayer& layer = layers_[li];
        const std::size_t n_out = layer.fan_out();
        double* c = dst(li) + row0 * ld(li);
        gemm::nn_packed(rows, n_out, layer.fan_in(), cur, ld_cur, cache.gemm_slabs[li].data(),
                        c, ld(li), /*accumulate=*/false);
        const double* bias = layer.bias.data();
        for (std::size_t r = 0; r < rows; ++r) {
          double* row = c + r * ld(li);
          for (std::size_t j = 0; j < n_out; ++j) row[j] += bias[j];
          apply_activation(row, n_out, layer.activation);
        }
        cur = c;
        ld_cur = ld(li);
      }
    }
    for (std::size_t r = tile_end; r < row1; ++r) {
      const double* cur = input + r * input_size();
      for (std::size_t li = 0; li <= last; ++li) {
        const DenseLayer& layer = layers_[li];
        double* y = dst(li) + r * ld(li);
        gemv::bias_act(layer.fan_in(), layer.fan_out(), cur, cache.panels[li].data(),
                       layer.bias.data(), static_cast<int>(layer.activation), y);
        cur = y;
      }
    }
  };

  // One fork per forward: each chunk runs every layer on its own rows, so
  // the whole network, not just its widest product, splits across the
  // pool. Chunk starts stay tile-aligned, so only the last chunk can hold
  // GEMV rows; the GEMM calls inside a chunk nest in this region and run
  // inline.
  const std::size_t min_rows =
      (kMinMacsPerChunk + row_macs - 1) / std::max<std::size_t>(1, row_macs);
  parallel_for_rows(batch, std::max(min_rows, kTileRows), kTileRows, forward_rows);
}

void Mlp::predict_row_legacy(std::span<const double> input, std::vector<double>& out,
                             Scratch& scratch) const {
  if (input.size() != input_size()) throw std::invalid_argument("predict_row: input size");
  scratch.a.assign(input.begin(), input.end());
  for (const DenseLayer& layer : layers_) {
    const std::size_t in = layer.fan_in();
    const std::size_t n_out = layer.fan_out();
    scratch.b.assign(layer.bias.data(), layer.bias.data() + n_out);
    const double* w = layer.weights.data();
    for (std::size_t i = 0; i < in; ++i) {
      const double x = scratch.a[i];
      if (x == 0.0) continue;
      const double* wrow = w + i * n_out;
      for (std::size_t j = 0; j < n_out; ++j) scratch.b[j] += x * wrow[j];
    }
    switch (layer.activation) {
      case Activation::kLinear: break;
      case Activation::kTanh:
        vecmath::tanh_inplace(scratch.b.data(), scratch.b.size());
        break;
      case Activation::kRelu:
        for (double& v : scratch.b) v = std::max(0.0, v);
        break;
    }
    scratch.a.swap(scratch.b);
  }
  out = scratch.a;
}

const Matrix& Mlp::backward(const Matrix& grad_output) {
  if (layers_.back().input.empty()) throw std::logic_error("Mlp::backward without forward");
  layers_.back().grad_preact = grad_output;  // copy into the reused cache
  for (std::size_t li = layers_.size(); li-- > 0;) {
    DenseLayer& layer = layers_[li];
    if (layer.input.empty()) throw std::logic_error("Mlp::backward without forward");

    // d(loss)/d(pre-activation), in place on the cached gradient.
    Matrix& grad = layer.grad_preact;
    double* g = grad.data();
    const double* y = layer.output.data();
    switch (layer.activation) {
      case Activation::kLinear: break;
      case Activation::kTanh:
        for_row_ranges(grad, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) g[i] *= (1.0 - y[i] * y[i]);
        });
        break;
      case Activation::kRelu:
        for_row_ranges(grad, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            if (y[i] <= 0.0) g[i] = 0.0;
          }
        });
        break;
    }

    matmul_tn_acc(layer.grad_weights, layer.input, grad);
    add_column_sums(layer.grad_bias, grad);
    if (li > 0) matmul_nt_into(layers_[li - 1].grad_preact, grad, layer.weights);
  }
  return layers_.front().grad_preact;
}

void Mlp::zero_grad() {
  for (DenseLayer& layer : layers_) {
    layer.grad_weights.fill(0.0);
    layer.grad_bias.fill(0.0);
  }
}

double Mlp::grad_norm() const noexcept {
  double sum = 0.0;
  for (const DenseLayer& layer : layers_) {
    for (std::size_t i = 0; i < layer.grad_weights.size(); ++i) {
      sum += layer.grad_weights.data()[i] * layer.grad_weights.data()[i];
    }
    for (std::size_t i = 0; i < layer.grad_bias.size(); ++i) {
      sum += layer.grad_bias.data()[i] * layer.grad_bias.data()[i];
    }
  }
  return std::sqrt(sum);
}

void Mlp::clip_grad_norm(double max_norm) {
  const double norm = grad_norm();
  if (norm > max_norm && norm > 0.0) scale_grad(max_norm / norm);
}

void Mlp::scale_grad(double factor) {
  for (DenseLayer& layer : layers_) {
    for (std::size_t i = 0; i < layer.grad_weights.size(); ++i) {
      layer.grad_weights.data()[i] *= factor;
    }
    for (std::size_t i = 0; i < layer.grad_bias.size(); ++i) {
      layer.grad_bias.data()[i] *= factor;
    }
  }
}

std::size_t Mlp::num_parameters() const noexcept {
  std::size_t n = 0;
  for (const DenseLayer& layer : layers_) n += layer.weights.size() + layer.bias.size();
  return n;
}

std::vector<double> Mlp::get_parameters() const {
  std::vector<double> flat;
  flat.reserve(num_parameters());
  for (const DenseLayer& layer : layers_) {
    flat.insert(flat.end(), layer.weights.data(), layer.weights.data() + layer.weights.size());
    flat.insert(flat.end(), layer.bias.data(), layer.bias.data() + layer.bias.size());
  }
  return flat;
}

void Mlp::set_parameters(std::span<const double> flat) {
  if (flat.size() != num_parameters()) {
    throw std::invalid_argument("Mlp: parameter count mismatch");
  }
  std::size_t offset = 0;
  for (DenseLayer& layer : layers_) {
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.weights.size(),
              layer.weights.data());
    offset += layer.weights.size();
    std::copy(flat.begin() + offset, flat.begin() + offset + layer.bias.size(),
              layer.bias.data());
    offset += layer.bias.size();
  }
  invalidate_pack();
}

}  // namespace dosc::nn
