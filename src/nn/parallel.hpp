// Compute-thread budget and the fork/join helpers behind the GEMM kernels,
// the batched MLP forward and K-FAC's Cholesky factorisations and solves.
//
// Determinism contract: the work inside each chunk never depends on which
// thread runs it or in what order chunks complete, and the GEMM kernels
// never split a reduction across chunks, so every result is bit-identical
// for any thread count (set_compute_threads(1) vs (N)). Threading only
// changes wall clock, never output.
//
// The pool is a lazily started set of persistent workers shared process-wide.
// A caller that cannot take the pool (it is busy with another caller, or the
// caller is already inside a parallel region: a pool worker, or the caller
// running a chunk of its own job) runs its chunks inline on its own thread;
// nesting therefore cannot deadlock and concurrent callers (shared const
// Mlp::predict) stay safe.
//
// Idle threads wait spin-then-park (DESIGN.md section 14): they spin, with a
// yield between short pause bursts, for kSpinWindow, then block on the
// pool's generation word with std::atomic::wait. Helpers that are still
// spinning when the next job arrives join it from their own CPUs; a helper
// woken from a sleep is placed by the scheduler, and on small virtual
// machines that is usually the waker's own CPU.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Always-on totals of the compute pool (relaxed atomics), mirrored into
/// the telemetry registry counters `nn.pool.jobs`, `nn.pool.chunks`,
/// `nn.pool.helper_chunks` and `nn.pool.parks` when telemetry is enabled.
/// Only jobs that ran on the pool count; inline fallbacks do not.
/// helper_chunks / chunks is the share of pool work that helper threads
/// claimed. It says who ran the chunks, not where: helpers stacked on the
/// caller's CPU also claim chunks, and then run them one after another.
struct PoolStats {
  std::uint64_t jobs = 0;           ///< jobs forked onto the pool
  std::uint64_t chunks = 0;         ///< chunks of those jobs
  std::uint64_t helper_chunks = 0;  ///< chunks run by pool workers
  std::uint64_t parks = 0;          ///< waits that outlasted the spin window
};
PoolStats pool_stats() noexcept;

namespace detail {

using ChunkFn = void (*)(void* ctx, std::size_t chunk_index);

/// How long an idle pool thread spins before it parks. Jobs spaced closer
/// than this find their helpers awake on their own CPUs. A constant, not a
/// knob: the value is the measured trade-off of DESIGN.md section 14.
inline constexpr std::chrono::microseconds kSpinWindow{1000};

/// A fork/join pool of persistent workers; run_chunks uses one process-wide
/// instance. Tests build private instances to exercise start-up and
/// shutdown.
class Pool {
 public:
  Pool();
  /// Stops and joins every worker, whether spinning or parked.
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  /// Run fn(ctx, i) for i in [0, num_chunks) on the calling thread plus up
  /// to budget - 1 workers, and return once every chunk has finished.
  /// Returns false without running anything when another caller holds the
  /// pool; the caller then runs the chunks inline. num_chunks and budget
  /// must be at least 1.
  bool try_run(std::size_t num_chunks, ChunkFn fn, void* ctx, std::size_t budget);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Run fn(ctx, i) for i in [0, num_chunks) across the pool (caller
/// participates) and block until all chunks finish. Falls back to an inline
/// serial loop when the pool is unavailable. Never allocates after the pool
/// has warmed up.
void run_chunks(std::size_t num_chunks, ChunkFn fn, void* ctx);

/// True when the calling thread is inside a parallel region: it is a pool
/// worker, or a caller running chunks of its own job. Regions nested in a
/// chunk run inline.
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
