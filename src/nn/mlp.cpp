#include "nn/mlp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

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

Mlp::Mlp(const Mlp& other)
    : layers_(other.layers_), input_(other.input_), pack_(std::make_unique<PackCache>()) {}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  layers_ = other.layers_;
  input_ = other.input_;
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

namespace {

void apply_activation(double* v, std::size_t count, Activation act) noexcept {
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

/// g[i] *= f'(pre-activation) for i in [begin, end), from the activation's
/// output y: d(loss)/d(pre-activation) in place on the output gradient.
void apply_derivative(double* g, const double* y, std::size_t begin, std::size_t end,
                      Activation act) noexcept {
  switch (act) {
    case Activation::kLinear: return;
    case Activation::kTanh:
      for (std::size_t i = begin; i < end; ++i) g[i] *= (1.0 - y[i] * y[i]);
      return;
    case Activation::kRelu:
      for (std::size_t i = begin; i < end; ++i) {
        if (y[i] <= 0.0) g[i] = 0.0;
      }
      return;
  }
}

/// The one batched forward behind forward() and predict_batch(): every
/// layer over `batch` rows of `input` (row stride = the first layer's fan
/// in), layer li writing row r at dst(li).first + r * dst(li).second.
///
/// Whole register tiles go through the GEMM over the packed slabs with the
/// operation order of predict() (matmul, bias row add, activation); a
/// chunk's 1-3 trailing rows take the packed GEMV, which beats the GEMM's
/// partial-tile edge and is bit-identical per row. Rows split across the
/// compute pool with one fork per forward: each chunk runs every layer on
/// its own rows, so the whole network, not just its widest product, splits
/// across the pool. Chunk starts stay tile-aligned, so only the last chunk
/// can hold GEMV rows; the GEMM calls inside a chunk nest in this region
/// and run inline.
template <typename Dst>
void forward_layers(const std::vector<DenseLayer>& layers,
                    const std::vector<gemv::AlignedBuffer>& panels,
                    const std::vector<gemv::AlignedBuffer>& slabs, const double* input,
                    std::size_t batch, Dst dst) {
  constexpr std::size_t kTileRows = Mlp::kTileRows;
  const std::size_t last = layers.size() - 1;
  const std::size_t in_size = layers.front().fan_in();
  std::size_t row_macs = 0;
  for (const DenseLayer& layer : layers) row_macs += layer.fan_in() * layer.fan_out();

  const auto forward_rows = [&](std::size_t row0, std::size_t row1) {
    const std::size_t tile_end = row0 + (row1 - row0) / kTileRows * kTileRows;
    if (tile_end > row0) {
      const std::size_t rows = tile_end - row0;
      const double* cur = input + row0 * in_size;
      std::size_t ld_cur = in_size;
      for (std::size_t li = 0; li <= last; ++li) {
        const DenseLayer& layer = layers[li];
        const std::size_t n_out = layer.fan_out();
        const auto [base, ld] = dst(li);
        double* c = base + row0 * ld;
        gemm::nn_packed(rows, n_out, layer.fan_in(), cur, ld_cur, slabs[li].data(), c, ld,
                        /*accumulate=*/false);
        const double* bias = layer.bias.data();
        for (std::size_t r = 0; r < rows; ++r) {
          double* row = c + r * ld;
          for (std::size_t j = 0; j < n_out; ++j) row[j] += bias[j];
          apply_activation(row, n_out, layer.activation);
        }
        cur = c;
        ld_cur = ld;
      }
    }
    for (std::size_t r = tile_end; r < row1; ++r) {
      const double* cur = input + r * in_size;
      for (std::size_t li = 0; li <= last; ++li) {
        const DenseLayer& layer = layers[li];
        const auto [base, ld] = dst(li);
        double* y = base + r * ld;
        gemv::bias_act(layer.fan_in(), layer.fan_out(), cur, panels[li].data(),
                       layer.bias.data(), static_cast<int>(layer.activation), y);
        cur = y;
      }
    }
  };
  const std::size_t min_rows =
      (kMinMacsPerChunk + row_macs - 1) / std::max<std::size_t>(1, row_macs);
  parallel_for_rows(batch, std::max(min_rows, kTileRows), kTileRows, forward_rows);
}

/// fn(begin, end) over element ranges of m made of whole rows, split across
/// the compute pool. For per-element work (an activation derivative) the
/// split changes no bits.
template <typename Fn>
void for_row_ranges(const Matrix& m, Fn&& fn) {
  constexpr std::size_t kMinElementsPerChunk = 64 * 1024;
  const std::size_t cols = std::max<std::size_t>(1, m.cols());
  parallel_for_rows(m.rows(), std::max<std::size_t>(1, kMinElementsPerChunk / cols), 1,
                    [&](std::size_t row0, std::size_t row1) { fn(row0 * cols, row1 * cols); });
}

}  // namespace

const Matrix& Mlp::forward(const Matrix& x) {
  if (x.cols() != input_size()) throw std::invalid_argument("Mlp::forward: input size");
  input_ = x;  // copy-assign reuses the cache's existing capacity
  for (DenseLayer& layer : layers_) layer.output.ensure_shape(x.rows(), layer.fan_out());
  const PackCache& cache = ensure_packed();
  forward_layers(layers_, cache.panels, cache.gemm_slabs, input_.data(), x.rows(),
                 [this](std::size_t li) {
                   return std::pair<double*, std::size_t>(layers_[li].output.data(),
                                                          layers_[li].fan_out());
                 });
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
  // Layer li writes row r at dst(li).first + r * dst(li).second: hidden
  // layers alternate between the two scratch blocks, each with the row
  // stride of its widest layer, and the last layer writes `out`. Everything
  // is sized here, before the fork, so every chunk works in its own rows
  // and none allocates.
  const std::size_t last = layers_.size() - 1;
  std::size_t stride[2] = {0, 0};
  for (std::size_t li = 0; li < last; ++li) {
    stride[li % 2] = std::max(stride[li % 2], layers_[li].fan_out());
  }
  if (scratch.a.size() < batch * stride[0]) scratch.a.resize(batch * stride[0]);
  if (scratch.b.size() < batch * stride[1]) scratch.b.resize(batch * stride[1]);
  out.resize(batch * output_size());
  forward_layers(layers_, cache.panels, cache.gemm_slabs, input, batch, [&](std::size_t li) {
    if (li == last) return std::pair<double*, std::size_t>(out.data(), output_size());
    std::vector<double>& buf = li % 2 == 0 ? scratch.a : scratch.b;
    return std::pair<double*, std::size_t>(buf.data(), stride[li % 2]);
  });
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
  if (input_.empty()) throw std::logic_error("Mlp::backward without forward");
  const std::size_t batch = input_.rows();
  DenseLayer& top = layers_.back();
  if (grad_output.rows() != batch || grad_output.cols() != top.fan_out()) {
    throw std::invalid_argument("Mlp::backward: gradient shape");
  }
  top.grad_preact = grad_output;  // copy into the reused cache
  double* g_top = top.grad_preact.data();
  for_row_ranges(top.grad_preact, [&](std::size_t begin, std::size_t end) {
    apply_derivative(g_top, top.output.data(), begin, end, top.activation);
  });
  for (std::size_t li = layers_.size(); li-- > 0;) {
    DenseLayer& layer = layers_[li];
    // grad_preact holds d(loss)/d(pre-activation) of this layer here.
    const Matrix& grad = layer.grad_preact;
    matmul_tn_acc(layer.grad_weights, layer_input(li), grad);
    add_column_sums(layer.grad_bias, grad);
    if (li == 0) break;

    // The previous layer's gradient, G W^T, and its activation derivative
    // are both row-local: one fork over rows runs the product over W^T
    // packed once before it (bit-identical to gemm::nt, whose panels these
    // are) and then the derivative on the same rows while they are in
    // cache. The slab is packed here, not per chunk, so no pool thread
    // allocates one.
    DenseLayer& prev = layers_[li - 1];
    const std::size_t n_in = layer.fan_in();
    const std::size_t n_out = layer.fan_out();
    backward_slab_.resize(gemm::packed_b_size(n_out, n_in));
    gemm::pack_bt(n_out, n_in, layer.weights.data(), n_out, backward_slab_.data());
    prev.grad_preact.ensure_shape(batch, n_in);
    const double* g = grad.data();
    double* g_prev = prev.grad_preact.data();
    const double* y_prev = prev.output.data();
    const std::size_t min_rows = (kMinMacsPerChunk + n_in * n_out - 1) /
                                 std::max<std::size_t>(1, n_in * n_out);
    parallel_for_rows(batch, std::max(min_rows, kTileRows), kTileRows,
                      [&](std::size_t row0, std::size_t row1) {
                        gemm::nn_packed(row1 - row0, n_in, n_out, g + row0 * n_out, n_out,
                                        backward_slab_.data(), g_prev + row0 * n_in, n_in,
                                        /*accumulate=*/false);
                        apply_derivative(g_prev, y_prev, row0 * n_in, row1 * n_in,
                                         prev.activation);
                      });
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
