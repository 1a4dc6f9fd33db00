// Allocation accounting for the training hot path.
//
// The zero-allocation contract: after one warm-up pass has sized every
// workspace (layer caches, gradient buffers, K-FAC factors and solve
// workspaces, the thread pool itself), repeated Mlp::forward/backward and
// whole ACKTR updates at a steady batch shape perform NO heap allocation.
// The GEMM kernels' per-thread panels are fixed-size thread_local storage,
// so it does not matter which pool worker claims which chunk. This binary
// replaces the global operator new/delete with counting versions and
// asserts the count stays flat across the steady-state region — on any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "nn/mlp.hpp"
#include "nn/parallel.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "rl/updater.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dosc::nn {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal(0.0, 1.0);
  return m;
}

/// Allocations observed during `iterations` forward/backward passes at
/// steady state (after one warm-up pass), under the given compute-thread
/// budget.
std::uint64_t steady_state_allocs(std::size_t threads, std::size_t iterations) {
  ComputeThreadsGuard guard(threads);
  util::Rng rng(123);
  Mlp net({20, 256, 256, 5}, Activation::kTanh, Activation::kLinear, 9);
  const Matrix x = random_matrix(64, 20, rng);
  const Matrix g = random_matrix(64, 5, rng);
  net.zero_grad();
  net.forward(x);
  net.backward(g);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < iterations; ++i) {
    net.forward(x);
    net.backward(g);
  }
  return g_news.load(std::memory_order_relaxed) - before;
}

/// Allocations observed during `iterations` full ACKTR updates (critic and
/// actor forward/backward, K-FAC factors and step) of the paper's 2x256
/// actor-critic, after one warm-up update, under the given budget. The
/// batch is large enough that the factor Gram products, the Cholesky
/// factorisations and the substitutions all split across the pool.
std::uint64_t acktr_update_allocs(std::size_t threads, std::size_t iterations) {
  ComputeThreadsGuard guard(threads);
  util::Rng rng(321);
  rl::ActorCriticConfig config;
  config.obs_dim = 20;
  config.num_actions = 5;
  config.seed = 4;
  rl::ActorCritic net(config);
  rl::Updater updater(rl::UpdaterConfig{});  // ACKTR by default
  const std::size_t rows = 300;
  rl::Batch batch;
  batch.obs = random_matrix(rows, config.obs_dim, rng);
  for (std::size_t i = 0; i < rows; ++i) {
    batch.actions.push_back(static_cast<int>(i % config.num_actions));
    batch.returns.push_back(rng.normal(0.0, 1.0));
  }
  updater.update(net, batch);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < iterations; ++i) updater.update(net, batch);
  return g_news.load(std::memory_order_relaxed) - before;
}

/// Allocations observed during `iterations` batched inference forwards of
/// the paper's 2x256 actor at one batch size, after one warm-up forward.
/// Each chunk of the one-fork forward works in row slices of the caller's
/// BatchScratch, so no thread needs a buffer of its own.
std::uint64_t predict_batch_allocs(std::size_t threads, std::size_t batch,
                                   std::size_t iterations) {
  ComputeThreadsGuard guard(threads);
  util::Rng rng(55);
  Mlp net({20, 256, 256, 5}, Activation::kTanh, Activation::kLinear, 3);
  const Matrix x = random_matrix(batch, 20, rng);
  Mlp::BatchScratch scratch;
  std::vector<double> out;
  net.predict_batch(x.data(), batch, out, scratch);
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < iterations; ++i) net.predict_batch(x.data(), batch, out, scratch);
  return g_news.load(std::memory_order_relaxed) - before;
}

TEST(NnAlloc, CountingAllocatorSeesAllocations) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  // Volatile-sized so the allocation cannot be elided as dead.
  volatile std::size_t n = 4096;
  double* p = new double[n];
  delete[] p;
  EXPECT_GT(g_news.load(std::memory_order_relaxed), before);
}

TEST(NnAlloc, ForwardBackwardSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(/*threads=*/1, /*iterations=*/10), 0u);
}

TEST(NnAlloc, ForwardBackwardSteadyStateIsAllocationFreeMultiThread) {
  // Pool threads and the run bookkeeping warm up in the first pass; after
  // that the parallel path must be just as allocation-free as the serial
  // one.
  EXPECT_EQ(steady_state_allocs(/*threads=*/4, /*iterations=*/10), 0u);
}

TEST(NnAlloc, AcktrUpdateSteadyStateIsAllocationFree) {
  EXPECT_EQ(acktr_update_allocs(/*threads=*/1, /*iterations=*/2), 0u);
}

TEST(NnAlloc, AcktrUpdateSteadyStateIsAllocationFreeMultiThread) {
  EXPECT_EQ(acktr_update_allocs(/*threads=*/4, /*iterations=*/2), 0u);
}

TEST(NnAlloc, PredictBatchSteadyStateIsAllocationFreeMultiThread) {
  EXPECT_EQ(predict_batch_allocs(/*threads=*/4, /*batch=*/16, /*iterations=*/20), 0u);
  EXPECT_EQ(predict_batch_allocs(/*threads=*/4, /*batch=*/32, /*iterations=*/20), 0u);
}

TEST(NnAlloc, ReshapeAllocatesOnlyWhenGrowing) {
  util::Rng rng(7);
  const Matrix big_a = random_matrix(48, 24, rng);
  const Matrix big_b = random_matrix(24, 32, rng);
  const Matrix small_a = random_matrix(8, 24, rng);
  Matrix c;
  matmul_into(c, big_a, big_b);  // sizes the buffer
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  matmul_into(c, small_a, big_b);  // shrinking reuses capacity
  matmul_into(c, big_a, big_b);    // regrowing within capacity too
  EXPECT_EQ(g_news.load(std::memory_order_relaxed) - before, 0u);
}

}  // namespace
}  // namespace dosc::nn
