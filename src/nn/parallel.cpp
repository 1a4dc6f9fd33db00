#include "nn/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/registry.hpp"

namespace dosc::nn {

namespace {

std::size_t default_threads() {
  if (const char* env = std::getenv("DOSC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) {
      return std::min<std::size_t>(static_cast<std::size_t>(parsed), kMaxComputeThreads);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : std::min<std::size_t>(hw, kMaxComputeThreads);
}

std::atomic<std::size_t>& thread_budget() {
  static std::atomic<std::size_t> budget{default_threads()};
  return budget;
}

/// Set on pool workers for life, and on a caller while it drains its own
/// job: a parallel region nested in a chunk then runs inline instead of
/// trying the pool's caller mutex, which the caller may already hold.
thread_local bool t_in_region = false;

/// Always-on pool totals (see PoolStats) and their registry mirror, the
/// idiom of gemm's flop counter. The registry entry is looked up once and
/// cached; entries survive MetricsRegistry::clear().
struct PoolCounter {
  const char* name;
  std::atomic<std::uint64_t> total{0};
  std::atomic<telemetry::Counter*> mirror{nullptr};

  void add(std::uint64_t n) noexcept {
    total.fetch_add(n, std::memory_order_relaxed);
    if (!telemetry::enabled()) return;
    telemetry::Counter* c = mirror.load(std::memory_order_acquire);
    if (c == nullptr) {
      c = &telemetry::MetricsRegistry::global().counter(name);
      mirror.store(c, std::memory_order_release);
    }
    c->add(n);
  }
};
PoolCounter g_jobs{"nn.pool.jobs"};
PoolCounter g_chunks{"nn.pool.chunks"};
PoolCounter g_helper_chunks{"nn.pool.helper_chunks"};
PoolCounter g_parks{"nn.pool.parks"};

/// Polls between two spin-window checks. Each poll is one load and one
/// pause (~40-140 cycles on current x86), so a burst is a few microseconds.
constexpr int kPollsPerBurst = 64;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Wait until ready(word) holds and return the value that satisfied it.
/// Spins for kSpinWindow, yielding the CPU between pause bursts, then parks
/// on the word with std::atomic::wait. The yield matters when waiters
/// outnumber CPUs: a pause-only spinner that shares a CPU with the thread
/// it waits for takes that thread's time slices.
template <typename Ready>
std::uint32_t spin_then_park(const std::atomic<std::uint32_t>& word, Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + detail::kSpinWindow;
  while (true) {
    for (int i = 0; i < kPollsPerBurst; ++i) {
      const std::uint32_t v = word.load(std::memory_order_acquire);
      if (ready(v)) return v;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::yield();
  }
  g_parks.add(1);
  while (true) {
    const std::uint32_t v = word.load(std::memory_order_acquire);
    if (ready(v)) return v;
    word.wait(v, std::memory_order_acquire);
  }
}

}  // namespace

namespace detail {

/// One job (a set of chunks) runs at a time, serialised by `caller_mutex`.
/// Publishing a job bumps `generation`, which idle workers watch. Workers
/// join through `admission`, one word holding the job's open helper slots
/// (high half) and the helpers inside it (low half), so taking a slot and
/// being counted as running is one compare-exchange, and the caller can
/// close the job only at a moment when no helper is inside it. Chunks are
/// claimed with an atomic ticket so load imbalance self-levels; results
/// cannot depend on the claim order because callers only submit
/// chunk-independent work.
struct Pool::State {
  static constexpr std::uint32_t kSlot = 1u << 16;
  static constexpr std::uint32_t running(std::uint32_t a) noexcept { return a & (kSlot - 1); }
  static constexpr std::uint32_t slots(std::uint32_t a) noexcept { return a >> 16; }
  static_assert(kMaxComputeThreads < kSlot);

  std::mutex caller_mutex;  ///< one job at a time; busy callers inline
  std::vector<std::thread> workers;  ///< grown only under caller_mutex

  // Idle workers poll these two words; the chunk ticket, which every
  // executing thread hammers, lives on its own cache line.
  alignas(64) std::atomic<std::uint32_t> generation{0};
  std::atomic<std::uint32_t> admission{0};
  std::atomic<bool> stop{false};

  // The published job. Written by the caller before it opens the slots,
  // read by helpers only after they take one.
  ChunkFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t total_chunks = 0;
  alignas(64) std::atomic<std::size_t> next_chunk{0};

  std::size_t drain() {
    std::size_t ran = 0;
    while (true) {
      const std::size_t i = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_chunks) return ran;
      fn(ctx, i);
      ++ran;
    }
  }

  bool admit() {
    std::uint32_t a = admission.load(std::memory_order_relaxed);
    while (slots(a) > 0) {
      // Acquire: the job's fields were written before the slots opened.
      if (admission.compare_exchange_weak(a, a - kSlot + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void worker_loop(std::uint32_t seen) {
    t_in_region = true;
    while (true) {
      seen = spin_then_park(generation, [seen](std::uint32_t g) { return g != seen; });
      if (stop.load(std::memory_order_acquire)) return;
      if (!admit()) continue;  // late to a fully staffed or closed job
      const std::size_t ran = drain();
      if (ran > 0) g_helper_chunks.add(ran);
      // Release: the chunks' writes happen before the caller sees zero.
      if (running(admission.fetch_sub(1, std::memory_order_release)) == 1) {
        admission.notify_one();
      }
    }
  }
};

Pool::Pool() : state_(std::make_unique<State>()) {
  // Workers mirror counters into the registry until they are joined, so
  // the registry must be constructed first (and hence destroyed last).
  (void)telemetry::MetricsRegistry::global();
}

Pool::~Pool() {
  state_->stop.store(true, std::memory_order_release);
  state_->generation.fetch_add(1, std::memory_order_release);
  state_->generation.notify_all();
  for (std::thread& t : state_->workers) t.join();
}

bool Pool::try_run(std::size_t num_chunks, ChunkFn fn, void* ctx, std::size_t budget) {
  State& s = *state_;
  std::unique_lock<std::mutex> caller_lock(s.caller_mutex, std::try_to_lock);
  if (!caller_lock.owns_lock()) return false;

  const std::size_t helpers = std::min(budget - 1, num_chunks - 1);
  while (s.workers.size() < helpers) {
    // A new worker starts from the current generation, so it joins the job
    // published below instead of mistaking it for an old one.
    const std::uint32_t seen = s.generation.load(std::memory_order_relaxed);
    s.workers.emplace_back([&s, seen] { s.worker_loop(seen); });
  }

  s.fn = fn;
  s.ctx = ctx;
  s.total_chunks = num_chunks;
  s.next_chunk.store(0, std::memory_order_relaxed);
  s.admission.store(static_cast<std::uint32_t>(helpers) * State::kSlot,
                    std::memory_order_release);
  s.generation.fetch_add(1, std::memory_order_release);
  s.generation.notify_all();  // a syscall only when some worker is parked

  t_in_region = true;
  s.drain();  // the caller is always one of the executing threads
  t_in_region = false;

  // Every chunk is claimed now; those not run here are held by admitted
  // helpers, so the job is done once no helper is inside it. Close it in
  // the same step: a worker that wakes only now must not join, or it could
  // take a ticket from the next job's reset counter while holding this
  // job's chunk count, run a chunk twice, or miss one.
  std::uint32_t a = s.admission.load(std::memory_order_acquire);
  while (true) {
    if (State::running(a) != 0) {
      a = spin_then_park(s.admission, [](std::uint32_t v) { return State::running(v) == 0; });
      continue;
    }
    if (s.admission.compare_exchange_weak(a, 0, std::memory_order_acquire,
                                          std::memory_order_acquire)) {
      break;
    }
  }
  g_jobs.add(1);
  g_chunks.add(num_chunks);
  return true;
}

}  // namespace detail

namespace {

detail::Pool& pool() {
  static detail::Pool p;
  return p;
}

}  // namespace

void set_compute_threads(std::size_t n) {
  if (n == 0) n = default_threads();
  thread_budget().store(std::clamp<std::size_t>(n, 1, kMaxComputeThreads),
                        std::memory_order_relaxed);
}

std::size_t compute_threads() noexcept {
  return thread_budget().load(std::memory_order_relaxed);
}

PoolStats pool_stats() noexcept {
  return PoolStats{g_jobs.total.load(std::memory_order_relaxed),
                   g_chunks.total.load(std::memory_order_relaxed),
                   g_helper_chunks.total.load(std::memory_order_relaxed),
                   g_parks.total.load(std::memory_order_relaxed)};
}

namespace detail {

bool on_worker_thread() noexcept { return t_in_region; }

void run_chunks(std::size_t num_chunks, ChunkFn fn, void* ctx) {
  if (num_chunks == 0) return;
  const std::size_t budget = compute_threads();
  if (num_chunks == 1 || budget <= 1 || t_in_region ||
      !pool().try_run(num_chunks, fn, ctx, budget)) {
    for (std::size_t i = 0; i < num_chunks; ++i) fn(ctx, i);
  }
}

}  // namespace detail

}  // namespace dosc::nn
