// train: core::train_distributed_policy at the paper's 2x256 net on the
// Abilene base scenario — l = 4 environments, one seed, a fixed iteration
// count, the default synchronous path and a one-episode selection eval.
// The ACKTR update is ~88% of wall and the rollout ~11%, so KFAC/GEMM and
// trainer-loop changes show here and almost nowhere else.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/policy_io.hpp"
#include "nn/gemm.hpp"
#include "nn/gemv.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dosc::core::TrainingConfig;

constexpr std::size_t kIterations = 3;  ///< updates per train_distributed_policy call
/// Updates of the run that trained the fixed policy.
constexpr std::size_t kPolicyIterations = 300;

TrainingConfig bench_config(std::uint64_t seed_base, std::size_t iterations) {
  TrainingConfig config;
  config.hidden = {256, 256};
  config.num_seeds = 1;
  config.parallel_envs = 4;
  config.iterations = iterations;
  config.eval_episodes = 1;
  config.seed_base = seed_base;
  return config;
}

/// One timed call: its wall, the update time when telemetry is on, and
/// output checks.
struct Call {
  double wall_s = 0.0;
  double update_s = 0.0;  ///< from train.update_ms
  double select_s = 0.0;  ///< last update to return: the selection eval
  std::uint64_t checksum = 0;
  std::uint64_t update_rows = 0;
  std::size_t bad_updates = 0;  ///< non-finite loss
};

double registry_seconds(const char* name) {
  return dosc::telemetry::MetricsRegistry::global().histogram(name).sum() * 1e-3;
}

Call train_once(const dosc::sim::Scenario& scenario, const TrainingConfig& config) {
  Call call;
  const bool telemetry_on = dosc::telemetry::enabled();
  double last = now_s();
  const double update0 = telemetry_on ? registry_seconds("train.update_ms") : 0.0;
  const double start = last;
  const dosc::core::TrainedPolicy policy = dosc::core::train_distributed_policy(
      scenario, config, [&](const dosc::core::TrainingProgress& p) {
        last = now_s();
        if (telemetry_on) call.update_s = registry_seconds("train.update_ms") - update0;
        call.update_rows += p.update.batch_size;
        const dosc::rl::UpdateStats& u = p.update;
        if (!std::isfinite(u.policy_loss) || !std::isfinite(u.value_loss) ||
            !std::isfinite(u.entropy) || !std::isfinite(u.mean_advantage)) {
          ++call.bad_updates;
        }
      });
  const double end = now_s();
  call.wall_s = end - start;
  call.select_s = end - last;
  call.checksum = dosc::core::policy_checksum(policy.parameters);
  return call;
}

/// Seconds covered by at least one train/rollout span on the global tracer:
/// the wall of the rollout phases, whose l env threads overlap.
double rollout_span_s() {
  std::vector<std::pair<double, double>> spans;
  for (const dosc::telemetry::TraceEvent& e : dosc::telemetry::Tracer::global().events()) {
    if (std::strcmp(e.category, "train") == 0 && std::strcmp(e.name, "rollout") == 0) {
      spans.emplace_back(e.ts_us, e.ts_us + e.dur_us);
    }
  }
  std::sort(spans.begin(), spans.end());
  double covered_us = 0.0;
  double end = -1.0;
  for (const auto& [lo, hi] : spans) {
    if (hi > end) {
      covered_us += hi - std::max(lo, end);
      end = hi;
    }
  }
  return covered_us * 1e-6;
}

struct Phase {
  std::vector<Call> calls;
  double wall_s = 0.0;
};

Phase run_phase(const dosc::sim::Scenario& scenario, const TrainingConfig& config,
                double seconds, std::uint64_t& checksum, Result& result) {
  Phase phase;
  for (const double start = now_s(); phase.calls.empty() || now_s() - start < seconds;) {
    Call call = train_once(scenario, config);
    phase.wall_s += call.wall_s;
    result.attempted += config.iterations;
    result.failed += call.bad_updates;
    if (call.bad_updates > 0) result.fail("non-finite update loss");
    if (checksum == 0) checksum = call.checksum;
    if (call.checksum != checksum) {
      result.failed += config.iterations;
      result.fail("trained parameters differ between identical calls");
    }
    phase.calls.push_back(std::move(call));
  }
  return phase;
}

}  // namespace

void make_policy(const std::string& path) {
  const dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
  TrainingConfig config = bench_config(1, kPolicyIterations);
  config.eval_episodes = TrainingConfig{}.eval_episodes;
  config.updater.lr_decay_updates = kPolicyIterations;
  const dosc::core::TrainedPolicy policy = dosc::core::train_distributed_policy(
      scenario, config, [](const dosc::core::TrainingProgress& p) {
        if (p.iteration % 10 == 0) {
          std::printf("iter %3zu reward %9.1f policy_loss %.4g\n", p.iteration,
                      p.mean_episode_reward, p.update.policy_loss);
          std::fflush(stdout);
        }
      });
  dosc::core::save_policy(policy, path);
  std::printf("saved %s (selection eval success %.4f)\n", path.c_str(),
              policy.eval_success_ratio);
}

Result run_train(const Options& options) {
  Result result;
  dosc::sim::Scenario scenario = dosc::sim::make_base_scenario();
  const TrainingConfig config = bench_config(derive_seed(options.seed, 0), kIterations);
  // Set-up: the scenario plus a one-iteration warm-up call (compute pool,
  // first-touch of the 2x256 buffers).
  const double setup_s = time_setup([&] {
    scenario = dosc::sim::make_base_scenario();
    train_once(scenario, bench_config(options.seed, 1));
  });

  const double measured_s = options.trace ? options.seconds / 2 : options.seconds;
  std::uint64_t checksum = 0;
  const Phase untraced = run_phase(scenario, config, measured_s, checksum, result);

  // Env steps of one call, untimed: the same call with the metrics
  // registry on, which also checks that telemetry leaves training unchanged.
  dosc::telemetry::Counter& env_steps =
      dosc::telemetry::MetricsRegistry::global().counter("train.env_steps");
  const std::uint64_t steps0 = env_steps.value();
  dosc::telemetry::set_enabled(true);
  const Call counted = train_once(scenario, config);
  dosc::telemetry::set_enabled(false);
  const double steps = static_cast<double>(env_steps.value() - steps0);
  result.attempted += config.iterations;
  result.failed += counted.bad_updates;
  if (counted.bad_updates > 0) result.fail("non-finite update loss");
  if (counted.checksum != checksum) {
    result.failed += config.iterations;
    result.fail("trained parameters change with telemetry on");
  }
  std::printf("# train: %zu calls x %zu iterations, %.0f env steps per call, checksum %016llx\n",
              untraced.calls.size(), config.iterations, steps,
              static_cast<unsigned long long>(checksum));

  const auto metrics = [&](const Phase& phase) {
    const double ok =
        1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    std::vector<double> rates;
    for (const Call& call : phase.calls) rates.push_back(steps / call.wall_s);
    return end_to_end_metrics(setup_s, ok, best_rate("train env steps", rates));
  };
  const std::vector<Metric> e2e = metrics(untraced);
  if (!options.trace) {
    result.metrics = e2e;
    return result;
  }

  // Registry totals before the traced phase; its numbers are the deltas.
  dosc::telemetry::MetricsRegistry& registry = dosc::telemetry::MetricsRegistry::global();
  const auto sim_events = [&registry] {
    double events = 0.0;
    for (std::size_t k = 0; k < dosc::sim::kNumEventKinds; ++k) {
      events += static_cast<double>(
          registry
              .counter(std::string("sim.events.") +
                       dosc::sim::event_kind_name(static_cast<dosc::sim::EventKind>(k)))
              .value());
    }
    return events;
  };
  const auto sim_skipped = [&registry] {
    return static_cast<double>(registry.counter("sim.events.skipped").value());
  };
  const double events0 = sim_events();
  const double skipped0 = sim_skipped();
  const double kfac0 = registry_seconds("train.kfac_ms");
  const std::uint64_t gemm0 = dosc::nn::gemm::flop_count();
  const std::uint64_t gemv0 = dosc::nn::gemv::flop_count();
  // The tracer keeps a 2.6 MB event ring for every thread that ever
  // recorded, and each iteration starts l fresh rollout threads: a few
  // seconds of traced calls bound that memory.
  dosc::telemetry::Tracer::global().clear();
  set_tracing(true);
  const Phase traced =
      run_phase(scenario, config, std::min(measured_s, 3.0), checksum, result);
  set_tracing(false);
  const double gemm_flops = static_cast<double>(dosc::nn::gemm::flop_count() - gemm0);
  const double gemv_flops = static_cast<double>(dosc::nn::gemv::flop_count() - gemv0);
  const double kfac_s = registry_seconds("train.kfac_ms") - kfac0;
  const double events = sim_events() - events0;
  const double skipped = sim_skipped() - skipped0;
  const double queue_peak = registry.gauge("sim.event_queue.peak").value();

  // Rollout phases from their trace spans (first env thread in to last
  // one out), updates from train.update_ms, the selection eval from the
  // last progress callback to the call's return. Thread start-up, net
  // construction, merge and the rest stay in the unattributed remainder.
  const double rollout_s = rollout_span_s();
  double update_s = 0.0;
  double select_s = 0.0;
  std::uint64_t update_rows = 0;
  for (const Call& call : traced.calls) {
    update_s += call.update_s;
    select_s += call.select_s;
    update_rows += call.update_rows;
  }
  const double remainder_s = traced.wall_s - rollout_s - update_s - select_s;
  const double overhead = -print_overhead(e2e, metrics(traced), "rate_per_s");
  const double coverage = print_layer_table("train", traced.wall_s,
                                            {{"rl.rollout", rollout_s},
                                             {"rl.update", update_s - kfac_s},
                                             {"nn.kfac", kfac_s},
                                             {"train.select_eval", select_s},
                                             {"unattributed (merge, threads)", remainder_s,
                                              false}});
  emit_per_layer(result, {{"sim.events", events},
                          {"sim.stale_ratio", skipped / (events + skipped)},
                          {"sim.queue_peak", queue_peak},
                          {"nn.gemm.flops", gemm_flops},
                          {"nn.gemv.flops", gemv_flops},
                          {"rl.rollout_s", rollout_s},
                          {"rl.update_s", update_s - kfac_s},
                          {"rl.update_rows", static_cast<double>(update_rows)},
                          {"nn.kfac_s", kfac_s},
                          {"train.other_s", select_s + remainder_s},
                          {"trace.coverage", coverage},
                          {"trace.overhead", overhead}});
  return result;
}

}  // namespace perfbench
