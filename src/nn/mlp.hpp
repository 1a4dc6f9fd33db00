// Multi-layer perceptron with manual backprop.
//
// The paper's actor and critic are each an MLP with two hidden layers of
// 256 tanh units (Sec. V-A2). This class supports arbitrary layer sizes,
// caches the per-layer statistics KFAC needs (layer inputs and
// pre-activation gradients), and exposes flat parameter get/set for
// best-agent selection and for copying the trained policy to every node.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace dosc::nn {

enum class Activation { kLinear, kTanh, kRelu };

/// One fully-connected layer. Public data: the trainer and the KFAC
/// optimizer both need direct access to weights, gradients, and caches.
struct DenseLayer {
  Matrix weights;  ///< [in, out]
  Matrix bias;     ///< [1, out]
  Activation activation = Activation::kTanh;

  Matrix grad_weights;  ///< accumulated d(loss)/d(weights)
  Matrix grad_bias;

  // Caches from the last forward()/backward() pass (training mode only).
  // A layer's input is the previous layer's output (the first layer's is
  // kept by the Mlp): see Mlp::layer_input.
  Matrix output;       ///< [batch, out]  — post-activation
  Matrix grad_preact;  ///< [batch, out]  — KFAC factor G uses this

  std::size_t fan_in() const noexcept { return weights.rows(); }
  std::size_t fan_out() const noexcept { return weights.cols(); }
};

class Mlp {
 public:
  /// layer_sizes = {in, h1, ..., out}. Hidden layers use `hidden`; the last
  /// layer uses `output` activation. The output layer's weights are
  /// initialised with a small stddev (common for policy/value heads).
  Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden, Activation output,
      std::uint64_t seed, double head_stddev = 0.01);
  /// The same network built straight from a flat parameter vector in
  /// get_parameters() order, with no random draw: what a deployed snapshot
  /// or a rollout replica needs. Both constructors allocate the layers
  /// through one routine, so the layout is the same. Throws
  /// std::invalid_argument unless parameters.size() ==
  /// parameter_count(layer_sizes).
  Mlp(const std::vector<std::size_t>& layer_sizes, Activation hidden, Activation output,
      std::span<const double> parameters);

  /// Number of parameters of a network with these layer sizes.
  static std::size_t parameter_count(const std::vector<std::size_t>& layer_sizes) noexcept;

  // Copies share no packed-weight state (the copy repacks lazily on first
  // predict_row); moves carry the cache along with the weights it mirrors.
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept;
  Mlp& operator=(Mlp&&) noexcept;
  ~Mlp();

  /// Training-mode forward: caches the input and every layer's output for
  /// backward(). Runs predict_batch's row-chunk routine (one fork, packed
  /// weight slabs, fused bias and activation) writing straight into each
  /// layer's output, so it is bit-identical to predict() and
  /// predict_batch(). Returns the last layer's cached output; the reference
  /// stays valid until the next forward(). Layer caches are reused across
  /// calls, so at a steady batch shape this performs no heap allocation.
  const Matrix& forward(const Matrix& x);
  /// Input of layer li in the last forward(): the forward's input for the
  /// first layer, the previous layer's output after it. K-FAC's A factor
  /// is built from these.
  const Matrix& layer_input(std::size_t li) const noexcept {
    return li == 0 ? input_ : layers_[li - 1].output;
  }
  /// Inference-mode forward: no caches touched; safe to call concurrently
  /// from multiple threads on a shared const Mlp.
  Matrix predict(const Matrix& x) const;

  /// Allocation-free single-observation forward for the per-decision hot
  /// path (a coordination decision is one of these; Fig. 9b measures it).
  /// `out` is resized to the output size; `scratch` is caller-provided
  /// working memory reused across calls. Routed through the register-blocked
  /// gemv kernels over packed weight panels owned by this Mlp (repacked
  /// lazily after any weight mutation), and bit-identical to predict() at
  /// the dispatched ISA level. `out` must not alias `input`. Thread-safe on
  /// a const Mlp (per-caller scratch, one-time internal repack under a
  /// mutex).
  struct Scratch {
    std::vector<double> a;
    std::vector<double> b;
  };
  void predict_row(std::span<const double> input, std::vector<double>& out,
                   Scratch& scratch) const;

  /// Batched inference forward for serving and rollout: `input` is a
  /// row-major [batch x input_size] block, `out` is resized to
  /// batch * output_size (row-major). Whole kTileRows-row tiles run through
  /// the tiled gemm kernels over pre-packed per-layer weight slabs with the
  /// exact operation order of predict() (matmul → bias row add →
  /// activation); the batch's last batch % kTileRows rows run through the
  /// packed gemv path. Both are bit-identical per row to predict() — and
  /// therefore to predict_row() — at the dispatched ISA level, so this is
  /// the one batch-dispatch rule for every caller, batch 1 included. Rows
  /// split across the compute pool with one fork per forward: each chunk
  /// runs every layer on its own rows. Alloc-free at a steady batch shape
  /// with a caller-reused scratch. Thread-safe on a const Mlp (per-caller
  /// scratch, one-time internal repack under a mutex).
  struct BatchScratch {
    std::vector<double> a;
    std::vector<double> b;
  };
  /// Register-tile height of the gemm kernels (nn/gemm_kernels.inc kMr).
  static constexpr std::size_t kTileRows = 4;
  void predict_batch(const double* input, std::size_t batch, std::vector<double>& out,
                     BatchScratch& scratch) const;

  /// The seed's scalar predict_row loop (bias-first accumulation with
  /// zero-skip), kept verbatim as the pre-fast-path reference point for
  /// bench_decide's interleaved A/B runs and the golden behaviour guard.
  void predict_row_legacy(std::span<const double> input, std::vector<double>& out,
                          Scratch& scratch) const;

  /// Backprop d(loss)/d(output) through the cached forward pass,
  /// accumulating parameter gradients. Returns the first layer's
  /// pre-activation gradient (valid until the next backward()). Gradient
  /// buffers are reused across calls: no heap allocation at a steady batch
  /// shape. Per layer: the bias sums split by column, and the input
  /// gradient G W^T over a packed W^T with the next layer's activation
  /// derivative runs in one fork over rows.
  const Matrix& backward(const Matrix& grad_output);

  void zero_grad();
  /// Global L2 norm of all parameter gradients.
  double grad_norm() const noexcept;
  /// Scale all gradients so the global norm is at most `max_norm`.
  void clip_grad_norm(double max_norm);
  void scale_grad(double factor);

  /// Mutable access invalidates the packed inference panels (callers use
  /// this to update weights in place, e.g. the KFAC updater).
  std::vector<DenseLayer>& layers() noexcept {
    invalidate_pack();
    return layers_;
  }
  const std::vector<DenseLayer>& layers() const noexcept { return layers_; }
  std::size_t input_size() const noexcept { return layers_.front().fan_in(); }
  std::size_t output_size() const noexcept { return layers_.back().fan_out(); }
  std::size_t num_parameters() const noexcept;

  std::vector<double> get_parameters() const;
  void set_parameters(std::span<const double> flat);

 private:
  struct PackCache;  // packed gemv weight panels (mutex + atomic valid flag)

  void invalidate_pack() noexcept;
  const PackCache& ensure_packed() const;

  std::vector<DenseLayer> layers_;
  Matrix input_;  ///< the last forward()'s input, the first layer's input
  /// backward()'s packed W^T of the layer being differentiated.
  std::vector<double> backward_slab_;
  /// Lazily packed per-layer weight panels for the gemv fast path. Mutable:
  /// packing is a cache fill on a logically-const network. Held by pointer
  /// so the synchronisation members don't pin the Mlp in place.
  mutable std::unique_ptr<PackCache> pack_;
};

}  // namespace dosc::nn
