// eval: greedy evaluation of the fixed 2x256 policy on the Abilene base
// scenario through core::evaluate_policy: 32 episodes per call, 16 in flight
// through the batched rollout driver on one thread. The actor forward is
// ~85% of wall, so forward and GEMM-dispatch changes show here.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "check/digest.hpp"
#include "core/batched_episode.hpp"
#include "core/drl_env.hpp"
#include "nn/gemm.hpp"
#include "nn/gemv.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dosc::sim::Scenario;
using dosc::sim::Simulator;

constexpr std::size_t kEpisodes = 32;   ///< one evaluate_policy call
constexpr std::size_t kBatchEnvs = 16;  ///< episodes in flight per worker
constexpr double kEpisodeMs = 500.0;
constexpr std::size_t kPinnedEpisodes = 4;
constexpr double kPinnedEpisodeMs = 1000.0;

struct Setup {
  Scenario scenario = dosc::sim::make_base_scenario();
  dosc::core::TrainedPolicy policy;
  std::unique_ptr<dosc::rl::ActorCritic> net;
};

std::unique_ptr<Setup> load_setup(const Options& options) {
  auto s = std::make_unique<Setup>();
  s->policy = load_fixed_policy(options);
  s->net = std::make_unique<dosc::rl::ActorCritic>(s->policy.instantiate());
  if (s->policy.max_degree != s->scenario.network().max_degree()) {
    throw std::runtime_error("eval: policy degree does not fit the base scenario");
  }
  // Warm-up: one short episode through the same call the timed loop makes.
  dosc::core::evaluate_policy(s->scenario, *s->net, {}, 1, 100.0, 1, {}, 1, kBatchEnvs);
  return s;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_result(const dosc::core::EvalResult& a, const dosc::core::EvalResult& b) {
  return same_bits(a.success_ratio, b.success_ratio) && same_bits(a.mean_reward, b.mean_reward) &&
         same_bits(a.mean_e2e_delay, b.mean_e2e_delay);
}

/// The sequential reference: one episode through Simulator::run with the
/// greedy coordinator (per-decision GEMV path) and an event digest.
EpisodeRecord reference_episode(const Setup& s, const Scenario& scenario, std::uint64_t seed) {
  Simulator simulator(scenario, seed);
  dosc::check::EventDigest digest;
  simulator.set_audit_hook(&digest);
  dosc::core::DistributedDrlCoordinator coordinator(*s.net, s.policy.max_degree);
  EpisodeRecord r = make_record("abilene/drl", seed, simulator.run(coordinator));
  for (const std::uint64_t n : simulator.events_by_kind()) r.events += n;
  r.digest = digest.digest();
  return r;
}

struct Traced {
  double wall_s = 0.0;
  double setup_s = 0.0;  ///< building episodes inside the driver's source
  LayerClock clock;
  dosc::rl::BatchedRolloutStats stats;
  std::vector<EpisodeRecord> records;
  std::uint64_t events = 0;
  std::uint64_t skipped = 0;
  std::size_t queue_peak = 0;

  void add(const Traced& t) {
    wall_s += t.wall_s;
    setup_s += t.setup_s;
    clock.dispatch_s += t.clock.dispatch_s;
    clock.obs_s += t.clock.obs_s;
    clock.forward_s += t.clock.forward_s;
    clock.sample_s += t.clock.sample_s;
    clock.obs_calls += t.clock.obs_calls;
    stats.decisions += t.stats.decisions;
    stats.gemv_rows += t.stats.gemv_rows;
    events += t.events;
    skipped += t.skipped;
    queue_peak = std::max(queue_peak, t.queue_peak);
  }
};

/// One evaluation pass through the benchmark's own streaming driver, with
/// every call into an episode timed by LayeredEpisode. Mirrors
/// evaluate_policy's batched stream: same episodes, same width.
Traced traced_pass(const Setup& s, const Scenario& scenario, std::uint64_t seed_base) {
  Traced t;
  std::vector<std::unique_ptr<dosc::core::DistributedDrlCoordinator>> coordinators;
  std::vector<std::unique_ptr<dosc::core::YieldingEpisode>> episodes;
  std::vector<std::unique_ptr<LayeredEpisode>> layered;
  const auto source = [&]() -> dosc::rl::BatchedEnv* {
    if (episodes.size() >= kEpisodes) return nullptr;
    const std::int64_t t0 = now_ns();
    coordinators.push_back(
        std::make_unique<dosc::core::DistributedDrlCoordinator>(*s.net, s.policy.max_degree));
    episodes.push_back(std::make_unique<dosc::core::YieldingEpisode>(
        scenario, seed_base + episodes.size(), *coordinators.back(), *coordinators.back()));
    layered.push_back(std::make_unique<LayeredEpisode>(*episodes.back(), t.clock));
    t.setup_s += static_cast<double>(now_ns() - t0) * 1e-9;
    return layered.back().get();
  };
  dosc::rl::BatchedRollout driver(s.net->actor(), s.net->actor().input_size());
  const double start = now_s();
  t.stats = driver.run(kBatchEnvs, source);
  t.wall_s = now_s() - start;
  for (std::size_t e = 0; e < episodes.size(); ++e) {
    Simulator& simulator = episodes[e]->simulator();
    EpisodeRecord r = make_record("abilene/drl", seed_base + e, episodes[e]->finish());
    for (const std::uint64_t n : simulator.events_by_kind()) r.events += n;
    t.events += r.events;
    t.skipped += simulator.engine_stats().events_skipped;
    t.queue_peak = std::max(t.queue_peak, simulator.engine_stats().peak_event_heap);
    t.records.push_back(r);
  }
  return t;
}

}  // namespace

dosc::util::Json record_eval_expected(const Options& options) {
  const std::unique_ptr<Setup> s = load_setup(options);
  const Scenario scenario = s->scenario.with_end_time(kPinnedEpisodeMs);
  dosc::util::Json::Array list;
  for (std::size_t e = 0; e < kPinnedEpisodes; ++e) {
    list.push_back(reference_episode(*s, scenario, e + 1).to_json());
  }
  dosc::util::Json::Object doc;
  doc["horizon_ms"] = kPinnedEpisodeMs;
  doc["episodes"] = list;
  return doc;
}

Result run_eval(const Options& options) {
  Result result;
  std::unique_ptr<Setup> s;
  const double setup_s = time_setup([&] { s = load_setup(options); });
  const Scenario scenario = s->scenario.with_end_time(kEpisodeMs);
  const std::uint64_t seed_base = derive_seed(options.seed, 0);

  // Timed: repeated identical evaluate_policy calls (one worker, 16 episodes
  // in flight); each must reproduce the first. 32 episodes per call keep the
  // rate from hinging on the seed: per-episode work varies ~2x with the
  // capacities each episode draws.
  const double measured_s = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> rep_us;
  dosc::core::EvalResult first;
  for (const double start = now_s(); rep_us.empty() || now_s() - start < measured_s;) {
    const double t0 = now_s();
    const dosc::core::EvalResult r = dosc::core::evaluate_policy(
        scenario, *s->net, {}, kEpisodes, kEpisodeMs, seed_base, {}, 1, kBatchEnvs);
    const double dt = now_s() - t0;
    rep_us.push_back(dt * 1e6);
    result.attempted += kEpisodes;
    if (rep_us.size() == 1) {
      first = r;
    } else if (!same_result(r, first)) {
      result.failed += kEpisodes;
      result.fail("evaluate_policy repeat differs from its first call");
    }
  }

  // Output checks, untimed: the sequential reference reproduces the
  // evaluation's success ratio and delay bit for bit, and the pinned
  // episodes reproduce their recorded outcomes and digests.
  std::vector<EpisodeRecord> reference;
  dosc::util::RunningStats success;
  dosc::util::RunningStats delay;
  std::uint64_t decisions = 0;
  for (std::size_t e = 0; e < kEpisodes; ++e) {
    reference.push_back(reference_episode(*s, scenario, seed_base + e));
    const EpisodeRecord& r = reference.back();
    decisions += r.decisions;
    const std::uint64_t ended = r.succeeded + r.dropped;
    success.add(ended > 0 ? static_cast<double>(r.succeeded) / static_cast<double>(ended) : 0.0);
    if (r.succeeded > 0) delay.add(r.mean_e2e_delay);
  }
  if (!same_bits(success.mean(), first.success_ratio) ||
      !same_bits(delay.mean(), first.mean_e2e_delay)) {
    result.failed += kEpisodes;
    result.fail("evaluate_policy differs from the sequential reference");
  }
  const dosc::util::Json expected = dosc::util::Json::load_file(expected_path(options)).at("eval");
  const Scenario pinned_scenario = s->scenario.with_end_time(expected.at("horizon_ms").as_number());
  std::vector<EpisodeRecord> pinned;
  for (std::size_t e = 0; e < kPinnedEpisodes; ++e) {
    pinned.push_back(reference_episode(*s, pinned_scenario, e + 1));
  }
  const std::size_t errors_before = result.errors.size();
  check_records("eval pinned", pinned, expected.at("episodes"), result);
  result.failed += result.errors.size() - errors_before;
  result.attempted += kEpisodes + kPinnedEpisodes;
  std::printf("# eval: %zu calls x %zu episodes, %llu decisions per call, success %.6f\n",
              rep_us.size(), kEpisodes, static_cast<unsigned long long>(decisions),
              first.success_ratio);

  const auto metrics = [&](const std::vector<double>& call_us) {
    std::vector<double> rates;
    for (const double us : call_us) rates.push_back(static_cast<double>(decisions) / (us * 1e-6));
    const double ok =
        1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    return end_to_end_metrics(setup_s, ok, best_rate("eval decisions", rates));
  };
  const std::vector<Metric> e2e = metrics(rep_us);
  if (!options.trace) {
    result.metrics = e2e;
    return result;
  }

  // Traced: the same episodes through the decorated driver until the
  // second half of the time is used; each pass must match the reference.
  set_tracing(true);
  const std::uint64_t gemm0 = dosc::nn::gemm::flop_count();
  const std::uint64_t gemv0 = dosc::nn::gemv::flop_count();
  Traced sum;
  std::vector<double> traced_us;
  for (const double start = now_s(); traced_us.empty() || now_s() - start < measured_s;) {
    const Traced t = traced_pass(*s, scenario, seed_base);
    result.attempted += kEpisodes;
    for (std::size_t e = 0; e < kEpisodes; ++e) {
      if (!t.records[e].same_as(reference[e])) {
        ++result.failed;
        result.fail("traced driver differs: " + t.records[e].describe() + " vs " +
                    reference[e].describe());
      }
    }
    sum.add(t);
    traced_us.push_back(t.wall_s * 1e6);
  }
  const double gemm_flops = static_cast<double>(dosc::nn::gemm::flop_count() - gemm0);
  const double gemv_flops = static_cast<double>(dosc::nn::gemv::flop_count() - gemv0);
  const double rows_p50 =
      dosc::telemetry::MetricsRegistry::global().histogram("rl.rollout.batch_rows").percentile(50);
  set_tracing(false);

  const double events = static_cast<double>(sum.events);
  const double forward_s = sum.clock.forward_s;
  const double overhead = -print_overhead(e2e, metrics(traced_us), "rate_per_s");
  const double coverage = print_layer_table("eval", sum.wall_s,
                                            {{"sim.dispatch", sum.clock.dispatch_s},
                                             {"core.obs_build", sum.clock.obs_s},
                                             {"nn.forward", forward_s},
                                             {"rl.sample", sum.clock.sample_s},
                                             {"core.episode_setup", sum.setup_s},
                                             {"unattributed",
                                              sum.wall_s - sum.setup_s - sum.clock.dispatch_s -
                                                  sum.clock.obs_s - forward_s -
                                                  sum.clock.sample_s,
                                              false}});
  emit_per_layer(
      result,
      {{"sim.dispatch_s", sum.clock.dispatch_s},
       {"sim.events", events},
       {"sim.ns_per_event", sum.clock.dispatch_s * 1e9 / events},
       {"sim.stale_ratio",
        static_cast<double>(sum.skipped) / (events + static_cast<double>(sum.skipped))},
       {"sim.queue_peak", static_cast<double>(sum.queue_peak)},
       {"core.obs_build_s", sum.clock.obs_s},
       {"core.obs_build_calls", static_cast<double>(sum.clock.obs_calls)},
       {"nn.forward_s", forward_s},
       {"nn.forward.rows_p50", rows_p50},
       {"nn.gemv_row_share",
        static_cast<double>(sum.stats.gemv_rows) / static_cast<double>(sum.stats.decisions)},
       {"nn.gemm.flops", gemm_flops},
       {"nn.gemv.flops", gemv_flops},
       {"nn.gflops", (gemm_flops + gemv_flops) / forward_s * 1e-9},
       {"rl.sample_s", sum.clock.sample_s},
       {"trace.coverage", coverage},
       {"trace.overhead", overhead}});
  return result;
}

}  // namespace perfbench
