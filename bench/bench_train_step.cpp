// Microbenchmark of one full ACKTR update (Alg. 1, lines 10-12) on the
// paper's 2x256 network, via google-benchmark:
//
//  * BM_AcktrUpdate: critic forward/backward, actor forward/backward,
//    KFAC factor refresh and damped natural-gradient step, for batch sizes
//    256..4096 on a single compute thread. This is the training hot loop
//    the tiled GEMM kernels and the zero-allocation workspaces target; the
//    batch-1024 case is the headline number tracked across revisions.
//  * BM_AcktrUpdateThreads: the batch-1024 update under 1/2/4 compute
//    threads (nn::set_compute_threads), showing row-partitioned scaling.
//    Outputs are bit-identical across thread counts by the GEMM
//    determinism contract, so this sweep is timing-only by construction.
//  * BM_GemmTiled / BM_GemmReference: the dominant GEMM shape of the
//    batch-1024 update (1024x256 * 256x256) through the tiled kernels and
//    through the seed-style naive reference loops — the kernel-level
//    speedup in isolation.
//
//  * Update phases (custom section after the google-benchmark runs): one
//    update of the 2x256 actor-critic at 2,306 rows, perfbench train's
//    mean rows per update, split per net into forward, backward, K-FAC
//    factors and K-FAC step, plus the whole Updater::update. Each is timed
//    at 1 thread, 2 threads and all hardware threads; Amdahl's law through
//    the 1- and 2-thread times, T(p) = S + P / p, gives the serial part
//    S = 2 T(2) - T(1). Written to BENCH_train_step.json as
//    "update_phases".
//
// Each family records per-iteration wall clock into a telemetry histogram
// (p50_ms/p99_ms counters) and derives GFLOP/s from the gemm::flop_count()
// delta across the timed region. The custom main dumps everything to
// BENCH_train_step.json ("dosc.bench.v1").
//
// Unlike bench_inference_micro there is no untimed twin loop: one update
// costs tens of milliseconds, so the per-iteration clock reads are noise.
// Set DOSC_BENCH_SMOKE=1 (CI) to shrink the sweep to two batch sizes and
// two iterations each — enough to exercise the code and emit the JSON.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/kfac.hpp"
#include "nn/matrix.hpp"
#include "nn/parallel.hpp"
#include "rl/actor_critic.hpp"
#include "rl/rollout.hpp"
#include "rl/updater.hpp"
#include "telemetry/histogram.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace dosc;

namespace {

constexpr std::size_t kObsDim = 20;      // observation_dim(degree 4)
constexpr std::size_t kNumActions = 5;   // degree 4 + "process here"

bool smoke() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_BENCH_SMOKE");
    return env != nullptr && std::string_view(env) != "0";
  }();
  return on;
}

rl::ActorCritic make_policy() {
  rl::ActorCriticConfig config;
  config.obs_dim = kObsDim;
  config.num_actions = kNumActions;
  config.hidden = {256, 256};  // paper-scale network
  config.seed = 1;
  return rl::ActorCritic(config);
}

rl::Batch make_batch(std::size_t n, util::Rng& rng) {
  rl::Batch batch;
  batch.obs = nn::Matrix(n, kObsDim);
  for (std::size_t i = 0; i < batch.obs.size(); ++i) {
    batch.obs.data()[i] = rng.uniform(-1.0, 1.0);
  }
  batch.actions.resize(n);
  batch.returns.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.actions[i] = static_cast<int>(
        rng.uniform_int(0, static_cast<std::int64_t>(kNumActions) - 1));
    batch.returns[i] = rng.uniform(-1.0, 1.0);
  }
  return batch;
}

/// Per-benchmark wall-clock histograms (microseconds) and GFLOP/s, keyed by
/// e.g. "acktr_update/batch=1024/threads=1". Dumped by main() into
/// BENCH_train_step.json.
std::map<std::string, telemetry::Histogram>& results() {
  static std::map<std::string, telemetry::Histogram> map;
  return map;
}

std::map<std::string, double>& gflops_results() {
  static std::map<std::string, double> map;
  return map;
}

void report(benchmark::State& state, const std::string& key,
            const telemetry::Histogram& hist, std::uint64_t flops) {
  if (hist.count() == 0 || hist.sum() <= 0.0) return;
  // flops / (sum_us * 1e-6) / 1e9 = flops / (sum_us * 1000).
  const double gflops = static_cast<double>(flops) / (hist.sum() * 1000.0);
  state.counters["p50_ms"] = hist.percentile(50.0) / 1000.0;
  state.counters["p99_ms"] = hist.percentile(99.0) / 1000.0;
  state.counters["gflops"] = gflops;
  auto [it, inserted] =
      results().emplace(key, telemetry::Histogram(telemetry::latency_histogram_config()));
  it->second.merge(hist);
  gflops_results()[key] = gflops;  // last repetition wins; they agree closely
}

void run_update(benchmark::State& state, std::size_t batch_size, int threads,
                const std::string& key) {
  nn::ComputeThreadsGuard guard(static_cast<std::size_t>(threads));
  rl::ActorCritic net = make_policy();
  util::Rng rng(7);
  const rl::Batch batch = make_batch(batch_size, rng);
  rl::Updater updater(rl::UpdaterConfig{});  // ACKTR with the paper's constants

  // One untimed update warms the KFAC factors and every workspace; from
  // here on the gradient path performs no heap allocation.
  updater.update(net, batch);

  telemetry::Histogram hist(telemetry::latency_histogram_config());
  const std::uint64_t flops0 = nn::gemm::flop_count();
  for (auto _ : state) {
    const util::Timer timer;
    benchmark::DoNotOptimize(updater.update(net, batch));
    hist.add(timer.elapsed_micros());
  }
  const std::uint64_t flops = nn::gemm::flop_count() - flops0;
  state.SetLabel(std::string(nn::gemm::isa_name()) + " batch=" +
                 std::to_string(batch_size) + " threads=" + std::to_string(threads));
  report(state, key, hist, flops);
}

}  // namespace

static void BM_AcktrUpdate(benchmark::State& state) {
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  run_update(state, batch_size, /*threads=*/1,
             "acktr_update/batch=" + std::to_string(batch_size) + "/threads=1");
}
BENCHMARK(BM_AcktrUpdate)->Apply([](benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond);
  if (smoke()) {
    b->Arg(256)->Arg(1024)->Iterations(2);
    return;
  }
  for (long n : {256L, 512L, 1024L, 2048L, 4096L}) b->Arg(n);
});

static void BM_AcktrUpdateThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::size_t batch_size = 1024;
  run_update(state, batch_size, threads,
             "acktr_update/batch=1024/threads=" + std::to_string(threads));
}
BENCHMARK(BM_AcktrUpdateThreads)->Apply([](benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond);
  if (smoke()) {
    b->Arg(1)->Arg(2)->Iterations(2);
    return;
  }
  for (long t : {1L, 2L, 4L}) b->Arg(t);
});

namespace {

void run_gemm(benchmark::State& state, bool reference, const std::string& key) {
  nn::ComputeThreadsGuard guard(1);
  util::Rng rng(11);
  // The dominant shape of the batch-1024 update: activations [1024 x 256]
  // times weights [256 x 256].
  nn::Matrix a(1024, 256);
  nn::Matrix b(256, 256);
  nn::Matrix c;
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1.0, 1.0);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1.0, 1.0);

  telemetry::Histogram hist(telemetry::latency_histogram_config());
  const std::uint64_t flops0 = nn::gemm::flop_count();
  for (auto _ : state) {
    const util::Timer timer;
    if (reference) {
      benchmark::DoNotOptimize(matmul_reference(a, b));
    } else {
      nn::matmul_into(c, a, b);
      benchmark::DoNotOptimize(c.data());
    }
    hist.add(timer.elapsed_micros());
  }
  const std::uint64_t flops = nn::gemm::flop_count() - flops0;
  state.SetLabel(std::string(nn::gemm::isa_name()) + " 1024x256x256");
  report(state, key, hist, flops);
}

}  // namespace

static void BM_GemmTiled(benchmark::State& state) {
  run_gemm(state, /*reference=*/false, "gemm_nn/1024x256x256/tiled");
}
BENCHMARK(BM_GemmTiled)->Unit(benchmark::kMillisecond);

static void BM_GemmReference(benchmark::State& state) {
  run_gemm(state, /*reference=*/true, "gemm_nn/1024x256x256/reference");
}
BENCHMARK(BM_GemmReference)->Unit(benchmark::kMillisecond);

namespace {

/// perfbench train's mean rows per update (6,918 env steps per 3 updates).
constexpr std::size_t kPhaseBatch = 2306;
constexpr const char* kPhases[] = {"forward", "backward", "kfac_factors", "kfac_step"};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Thread counts of the phase section: 1, 2 and all hardware threads.
constexpr std::size_t kThreadCounts = 3;

/// Median milliseconds of each phase of one net's part of an ACKTR update
/// (the Updater's sequence: forward, backward and gradient clip, K-FAC
/// factors, K-FAC step), [thread count][phase]. The thread counts take
/// turns within each repetition, so drift on a shared host hits all alike.
std::vector<std::vector<double>> net_phase_ms(bool critic, const std::size_t* counts,
                                              int reps) {
  struct Setup {
    rl::ActorCritic policy = make_policy();
    nn::Kfac kfac;
    std::vector<std::vector<double>> ms = std::vector<std::vector<double>>(4);
  };
  nn::KfacConfig config;  // the Updater's: the critic's trust region is 10x wider
  if (critic) config.kl_clip *= 10.0;
  std::vector<Setup> setups;
  for (std::size_t t = 0; t < kThreadCounts; ++t) setups.push_back(Setup{make_policy(), nn::Kfac(config)});
  util::Rng rng(7);
  const rl::Batch batch = make_batch(kPhaseBatch, rng);
  const std::size_t outputs = critic ? 1 : kNumActions;
  nn::Matrix grad(kPhaseBatch, outputs);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] = rng.normal(0.0, 1.0) / static_cast<double>(kPhaseBatch);
  }
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 warms the workspaces
    for (std::size_t t = 0; t < kThreadCounts; ++t) {
      nn::ComputeThreadsGuard guard(counts[t]);
      Setup& s = setups[t];
      nn::Mlp& net = critic ? s.policy.critic() : s.policy.actor();
      util::Timer timer;
      net.zero_grad();
      net.forward(batch.obs);
      const double t_forward = timer.elapsed_millis();
      net.backward(grad);
      net.clip_grad_norm(0.5);
      const double t_backward = timer.elapsed_millis();
      s.kfac.update_factors(net);
      const double t_factors = timer.elapsed_millis();
      s.kfac.step(net);
      const double t_step = timer.elapsed_millis();
      if (rep < 0) continue;
      s.ms[0].push_back(t_forward);
      s.ms[1].push_back(t_backward - t_forward);
      s.ms[2].push_back(t_factors - t_backward);
      s.ms[3].push_back(t_step - t_factors);
    }
  }
  std::vector<std::vector<double>> out;
  for (const Setup& s : setups) {
    out.emplace_back();
    for (const auto& v : s.ms) out.back().push_back(median(v));
  }
  return out;
}

/// Median milliseconds of a whole Updater::update per thread count, the
/// counts taking turns as in net_phase_ms.
std::vector<double> update_ms(const std::size_t* counts, int reps) {
  util::Rng rng(7);
  const rl::Batch batch = make_batch(kPhaseBatch, rng);
  std::vector<rl::ActorCritic> policies;
  std::vector<rl::Updater> updaters;
  std::vector<std::vector<double>> ms(kThreadCounts);
  for (std::size_t t = 0; t < kThreadCounts; ++t) {
    policies.push_back(make_policy());
    updaters.emplace_back(rl::UpdaterConfig{});
  }
  for (int rep = -1; rep < reps; ++rep) {
    for (std::size_t t = 0; t < kThreadCounts; ++t) {
      nn::ComputeThreadsGuard guard(counts[t]);
      const util::Timer timer;
      updaters[t].update(policies[t], batch);
      if (rep >= 0) ms[t].push_back(timer.elapsed_millis());
    }
  }
  std::vector<double> out;
  for (const auto& v : ms) out.push_back(median(v));
  return out;
}

util::Json phase_entry(double ms_1, double ms_2, double ms_all) {
  return util::Json(util::Json::Object{
      {"ms_1_thread", util::Json(ms_1)},
      {"ms_2_threads", util::Json(ms_2)},
      {"ms_all_threads", util::Json(ms_all)},
      {"serial_ms", util::Json(2.0 * ms_2 - ms_1)},
  });
}

/// The update_phases section of BENCH_train_step.json; also printed.
util::Json update_phases() {
  const int reps = smoke() ? 2 : 15;
  const std::size_t all = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t counts[kThreadCounts] = {1, 2, all};
  std::printf("\nACKTR update phases at batch %zu (medians of %d, ms; serial = 2 T2 - T1)\n",
              kPhaseBatch, reps);
  util::Json::Object nets;
  for (const bool critic : {false, true}) {
    const auto by_threads = net_phase_ms(critic, counts, reps);
    util::Json::Object phases;
    for (std::size_t p = 0; p < 4; ++p) {
      const double t1 = by_threads[0][p], t2 = by_threads[1][p], tn = by_threads[2][p];
      std::printf("  %-6s %-12s 1 thr %7.2f  2 thr %7.2f  %zu thr %7.2f  serial %7.2f\n",
                  critic ? "critic" : "actor", kPhases[p], t1, t2, all, tn, 2.0 * t2 - t1);
      phases[kPhases[p]] = phase_entry(t1, t2, tn);
    }
    nets[critic ? "critic" : "actor"] = util::Json(std::move(phases));
  }
  const std::vector<double> u = update_ms(counts, reps);
  std::printf("  update              1 thr %7.2f  2 thr %7.2f  %zu thr %7.2f  serial %7.2f\n",
              u[0], u[1], all, u[2], 2.0 * u[1] - u[0]);
  return util::Json(util::Json::Object{
      {"batch", util::Json(kPhaseBatch)},
      {"all_threads", util::Json(all)},
      {"repetitions", util::Json(static_cast<std::size_t>(reps))},
      {"nets", util::Json(std::move(nets))},
      {"update", phase_entry(u[0], u[1], u[2])},
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  util::Json phases = update_phases();

  if (!results().empty()) {
    util::Json::Array entries;
    for (const auto& [key, hist] : results()) {
      entries.push_back(util::Json(util::Json::Object{
          {"name", util::Json(key)},
          {"wall_ms",
           util::Json(util::Json::Object{
               {"mean", util::Json(hist.mean() / 1000.0)},
               {"min", util::Json(hist.min() / 1000.0)},
               {"p50", util::Json(hist.percentile(50.0) / 1000.0)},
               {"p90", util::Json(hist.percentile(90.0) / 1000.0)},
               {"p99", util::Json(hist.percentile(99.0) / 1000.0)},
               {"count", util::Json(static_cast<std::size_t>(hist.count()))},
           })},
          {"gflops", util::Json(gflops_results()[key])},
      }));
    }
    const util::Json doc(util::Json::Object{
        {"schema", util::Json("dosc.bench.v1")},
        {"benchmark", util::Json("train_step")},
        {"isa", util::Json(nn::gemm::isa_name())},
        {"smoke", util::Json(smoke())},
        {"results", util::Json(std::move(entries))},
        {"update_phases", std::move(phases)},
    });
    doc.save_file("BENCH_train_step.json", 2);
  }
  return 0;
}
