// Compute-thread budget and the fork/join helpers behind the GEMM kernels
// and K-FAC's Cholesky factorisations and solves.
//
// Determinism contract: the work inside each chunk never depends on which
// thread runs it or in what order chunks complete, and the GEMM kernels
// never split a reduction across chunks, so every result is bit-identical
// for any thread count (set_compute_threads(1) vs (N)). Threading only
// changes wall clock, never output.
//
// The pool is a lazily started set of persistent workers shared process-wide.
// A caller that cannot take the pool (it is busy with another caller, or the
// caller *is* a pool worker, i.e. a parallel region nested in another) runs
// its chunks inline on its own thread; nesting therefore cannot deadlock and
// concurrent callers (shared const Mlp::predict) stay safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>

namespace dosc::nn {

/// Upper bound of the compute-thread budget.
inline constexpr std::size_t kMaxComputeThreads = 256;

/// Kernels size their chunks so each holds at least ~256k multiply-adds:
/// smaller products are not worth a fork/join and run on the calling thread.
inline constexpr std::size_t kMinMacsPerChunk = 256 * 1024;

/// Set the compute-thread budget for the GEMM kernels. `n == 0` restores the
/// default: the value of the DOSC_THREADS environment variable if set, else
/// std::thread::hardware_concurrency(). Clamped to [1, 256]. Thread-safe.
void set_compute_threads(std::size_t n);

/// Current compute-thread budget (>= 1).
std::size_t compute_threads() noexcept;

/// RAII budget override; restores the previous value on destruction. Used by
/// the trainer to keep rollout workers + compute threads within the machine
/// and by benchmarks to sweep thread counts. The async trainer holds one for
/// its whole run with the budget from rl::resolve_thread_budget, so its
/// rollout workers and the learner's GEMMs partition the machine instead of
/// oversubscribing it.
class ComputeThreadsGuard {
 public:
  explicit ComputeThreadsGuard(std::size_t n) : previous_(compute_threads()) {
    set_compute_threads(n);
  }
  ~ComputeThreadsGuard() { set_compute_threads(previous_); }
  ComputeThreadsGuard(const ComputeThreadsGuard&) = delete;
  ComputeThreadsGuard& operator=(const ComputeThreadsGuard&) = delete;

 private:
  std::size_t previous_;
};

namespace detail {

using ChunkFn = void (*)(void* ctx, std::size_t chunk_index);

/// Run fn(ctx, i) for i in [0, num_chunks) across the pool (caller
/// participates) and block until all chunks finish. Falls back to an inline
/// serial loop when the pool is unavailable. Never allocates after the pool
/// has warmed up.
void run_chunks(std::size_t num_chunks, ChunkFn fn, void* ctx);

/// True when the calling thread is a pool worker (nested regions inline).
bool on_worker_thread() noexcept;

}  // namespace detail

/// Invoke fn(chunk_index) for every chunk in [0, num_chunks), possibly in
/// parallel. fn must not touch state shared across chunks without its own
/// synchronisation.
template <typename Fn>
void parallel_chunks(std::size_t num_chunks, Fn&& fn) {
  if (num_chunks <= 1 || compute_threads() <= 1 || detail::on_worker_thread()) {
    for (std::size_t i = 0; i < num_chunks; ++i) fn(i);
    return;
  }
  auto thunk = [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); };
  detail::run_chunks(num_chunks, thunk, &fn);
}

/// Fixed partition of [0, rows) into up to compute_threads() contiguous
/// chunks, each a multiple of `align` rows (except the last); fn(row_begin,
/// row_end) per chunk. The partition depends only on (rows, align,
/// compute_threads()), never on runtime scheduling.
template <typename Fn>
void parallel_for_rows(std::size_t rows, std::size_t min_rows_per_chunk, std::size_t align,
                       Fn&& fn) {
  if (rows == 0) return;
  std::size_t chunks = compute_threads();
  if (min_rows_per_chunk > 0) {
    chunks = std::min(chunks, (rows + min_rows_per_chunk - 1) / min_rows_per_chunk);
  }
  if (chunks <= 1) {
    fn(std::size_t{0}, rows);
    return;
  }
  std::size_t per_chunk = (rows + chunks - 1) / chunks;
  if (align > 1) per_chunk = ((per_chunk + align - 1) / align) * align;
  const std::size_t actual_chunks = (rows + per_chunk - 1) / per_chunk;
  parallel_chunks(actual_chunks, [&](std::size_t i) {
    const std::size_t begin = i * per_chunk;
    const std::size_t end = std::min(rows, begin + per_chunk);
    if (begin < end) fn(begin, end);
  });
}

}  // namespace dosc::nn
