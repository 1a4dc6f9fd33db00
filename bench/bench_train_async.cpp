// Training throughput benchmark: decoupled async actor/learner vs the
// synchronous barrier trainer.
//
// Four sections, all landing in BENCH_train_async.json ("dosc.bench.v1"):
//
//  1. Sync baseline: the synchronous trainer's inner loop (l sequential
//     episodes -> merge -> update, no eval) timed end to end. Reports
//     env_steps/s and updates/s — the denominator for every speedup below.
//     Its updates run on the whole compute pool (nn::compute_threads()),
//     which its learner_threads column reports.
//  2. Async worker sweep (1/2/4/8 persistent rollout workers): the same
//     episode workload through rl::AsyncTrainer — lock-free SPSC chunk
//     queues, epoch-published snapshots, clipped-IS staleness correction.
//     Reports env_steps/s, updates/s, mean snapshot staleness at
//     consumption, and speedup over the sync baseline.
//  3. Lockstep parity: core::train_distributed_policy with async{1 worker,
//     max_staleness 0} against the plain synchronous path — trained
//     parameters must match bit for bit (the test-suite anchor, re-proved
//     here on the benchmark workload).
//  4. Thread budget: what resolve_thread_budget hands each sweep point on
//     this machine, so the JSON records whether workers were oversubscribed
//     (on a 1-core container the 8-worker point measures scheduling
//     overhead, not scale-out — see EXPERIMENTS.md).
//
// Sections 1 and 2 run kRepeats times, the sync baseline and the async
// points alternating (each repeat reverses the order), and report the
// median run of each point: single runs of identical code spread by up to
// 1.8x on a shared host.
//
// DOSC_BENCH_SMOKE=1 (CI) shortens horizons but exercises every section.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/batched_episode.hpp"
#include "core/drl_env.hpp"
#include "core/observation.hpp"
#include "core/trainer.hpp"
#include "nn/parallel.hpp"
#include "rl/async_trainer.hpp"
#include "rl/rollout.hpp"
#include "rl/updater.hpp"
#include "sim/scenario.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace dosc;

namespace {

bool smoke() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_BENCH_SMOKE");
    return env != nullptr && std::string_view(env) != "0";
  }();
  return on;
}

double episode_time() { return smoke() ? 300.0 : 1000.0; }
std::size_t bench_updates() { return smoke() ? 4 : 30; }
constexpr std::size_t kEpisodesPerUpdate = 4;
/// Runs of every sync and async point; each reports its median run.
constexpr std::size_t kRepeats = 3;
constexpr std::uint64_t kSeedBase = 20260807;

sim::Scenario bench_scenario() {
  return sim::make_base_scenario(2, traffic::TrafficSpec::poisson(10.0), 100.0, "abilene",
                                 episode_time());
}

rl::ActorCriticConfig net_config(const sim::Scenario& scenario) {
  rl::ActorCriticConfig config;
  config.obs_dim = core::observation_dim(scenario.network().max_degree());
  config.num_actions = scenario.network().max_degree() + 1;
  config.hidden = {64, 64};
  config.seed = 9;
  return config;
}

/// One simulator episode through TrainingEnv, seeded on the synchronous
/// trainer's (iteration, env) grid so sync and async runs consume identical
/// workloads. Returns the episode reward.
double run_episode(const sim::Scenario& scenario, const rl::ActorCritic& policy,
                   rl::TrajectoryBuffer& buffer, std::size_t iteration,
                   std::size_t env_index, bool record_behavior_logp) {
  const std::uint64_t es = core::episode_seed(kSeedBase, 0, iteration, env_index);
  const std::size_t max_degree = scenario.network().max_degree();
  core::TrainingEnv env(policy, buffer, core::RewardConfig{}, max_degree,
                        util::Rng(es * 31 + 7), {}, record_behavior_logp);
  sim::Simulator sim(scenario, es);
  sim.run(env, &env);
  return env.episode_reward();
}

struct ThroughputResult {
  std::size_t env_steps = 0;
  std::size_t updates = 0;
  double wall_ms = 0.0;
  double mean_staleness = 0.0;
  std::size_t workers = 0;
  std::size_t learner_threads = 0;
  double mean_envs_per_round = 0.0;  ///< batched worker mode only
  double steps_per_sec() const { return wall_ms > 0.0 ? 1000.0 * env_steps / wall_ms : 0.0; }
  double updates_per_sec() const { return wall_ms > 0.0 ? 1000.0 * updates / wall_ms : 0.0; }
};

/// The synchronous trainer's inner loop without eval: l sequential episodes
/// per update, merged and fed to the Updater — the baseline the async
/// trainer must beat.
ThroughputResult run_sync(const sim::Scenario& scenario) {
  rl::ActorCritic net(net_config(scenario));
  rl::Updater updater{rl::UpdaterConfig{}};
  const std::size_t obs_dim = net.config().obs_dim;
  std::vector<rl::TrajectoryBuffer> buffers;
  std::vector<rl::Batch> batches(kEpisodesPerUpdate);
  for (std::size_t e = 0; e < kEpisodesPerUpdate; ++e) buffers.emplace_back(0.99);
  rl::Batch merged;
  ThroughputResult result;
  result.workers = 1;
  result.learner_threads = nn::compute_threads();
  const util::Timer timer;
  for (std::size_t update = 0; update < bench_updates(); ++update) {
    for (std::size_t e = 0; e < kEpisodesPerUpdate; ++e) {
      run_episode(scenario, net, buffers[e], update, e, /*record_behavior_logp=*/false);
      buffers[e].truncate_all();
      buffers[e].drain_into(batches[e], net, obs_dim);
    }
    util::Rng merge_rng(core::episode_seed(kSeedBase, 0, update, 777));
    rl::merge_batches_into(merged, batches, obs_dim, 4096, merge_rng);
    // Rows fed to the update after the 4,096-row cap: the unit
    // AsyncTrainStats::env_steps counts, so every speedup compares equal work.
    result.env_steps += merged.size();
    updater.update(net, merged);
    ++result.updates;
  }
  result.wall_ms = timer.elapsed_micros() / 1000.0;
  return result;
}

/// One async-worker episode environment for the batched mode: the same
/// TrainingEnv + seed grid as run_episode, driven through the decision-yield
/// surface instead of sim.run.
class BenchRolloutEpisode final : public rl::RolloutEpisode {
 public:
  BenchRolloutEpisode(const sim::Scenario& scenario, std::uint64_t seed,
                      const rl::ActorCritic& policy, rl::TrajectoryBuffer& buffer)
      : env_(policy, buffer, core::RewardConfig{}, scenario.network().max_degree(),
             util::Rng(seed * 31 + 7), {}, /*record_behavior_logp=*/true),
        episode_(scenario, seed, env_, env_, &env_) {}

  bool advance_to_decision() override { return episode_.advance_to_decision(); }
  void write_observation(std::span<double> out) override { episode_.write_observation(out); }
  void apply_logits(std::span<const double> logits) override { episode_.apply_logits(logits); }
  double finish() override {
    episode_.finish();
    return env_.episode_reward();
  }

 private:
  core::TrainingEnv env_;
  core::YieldingEpisode episode_;
};

ThroughputResult run_async(const sim::Scenario& scenario, std::size_t workers,
                           std::size_t envs_per_worker = 1) {
  rl::ActorCritic net(net_config(scenario));
  rl::AsyncTrainerConfig config;
  config.num_workers = workers;
  config.episodes_per_update = kEpisodesPerUpdate;
  config.updates = bench_updates();
  config.max_update_steps = 4096;
  config.queue_capacity = 8;
  config.max_staleness = 1;
  config.obs_dim = net.config().obs_dim;
  config.gamma = 0.99;
  config.reserve_flows = 512;
  config.reserve_steps_per_flow = 32;
  config.merge_seed = [](std::size_t update) {
    return core::episode_seed(kSeedBase, 0, update, 777);
  };
  config.envs_per_worker = envs_per_worker;
  if (envs_per_worker > 1) {
    config.episode_factory = [&scenario](std::size_t, std::size_t episode,
                                         const rl::ActorCritic& policy,
                                         rl::TrajectoryBuffer& buffer) {
      const std::uint64_t es = core::episode_seed(kSeedBase, 0, episode / kEpisodesPerUpdate,
                                                  episode % kEpisodesPerUpdate);
      return std::make_unique<BenchRolloutEpisode>(scenario, es, policy, buffer);
    };
  }
  rl::AsyncTrainer trainer(config, [&scenario](std::size_t, std::size_t episode,
                                               const rl::ActorCritic& policy,
                                               rl::TrajectoryBuffer& buffer) {
    return run_episode(scenario, policy, buffer, episode / kEpisodesPerUpdate,
                       episode % kEpisodesPerUpdate, /*record_behavior_logp=*/true);
  });
  const util::Timer timer;
  const rl::AsyncTrainStats stats = trainer.run(net);
  ThroughputResult result;
  result.wall_ms = timer.elapsed_micros() / 1000.0;
  result.env_steps = stats.env_steps;
  result.updates = stats.updates;
  result.mean_staleness = stats.mean_staleness;
  result.workers = stats.workers;
  result.learner_threads = stats.learner_threads;
  result.mean_envs_per_round = stats.mean_envs_per_round;
  return result;
}

/// Section 3: full train_distributed_policy parity, sync vs lockstep async
/// (envs_per_worker = 1 is the classic worker; > 1 re-proves that batched
/// workers leave the lockstep parameter trajectory untouched).
bool lockstep_parity(const sim::Scenario& scenario, std::size_t envs_per_worker) {
  core::TrainingConfig config;
  config.hidden = {16, 16};
  config.num_seeds = 1;
  config.parallel_envs = 2;
  config.iterations = smoke() ? 3 : 6;
  config.train_episode_time = 300.0;
  config.eval_episodes = 1;
  config.eval_episode_time = 300.0;
  core::TrainingConfig async_config = config;
  async_config.async.enabled = true;
  async_config.async.num_workers = 1;
  async_config.async.max_staleness = 0;
  async_config.async.envs_per_worker = envs_per_worker;
  const core::TrainedPolicy sync_policy = core::train_distributed_policy(scenario, config);
  const core::TrainedPolicy async_policy =
      core::train_distributed_policy(scenario, async_config);
  if (sync_policy.parameters.size() != async_policy.parameters.size()) return false;
  for (std::size_t i = 0; i < sync_policy.parameters.size(); ++i) {
    if (sync_policy.parameters[i] != async_policy.parameters[i]) return false;
  }
  return true;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("bench_train_async (%s horizon, %u hardware threads)\n",
              smoke() ? "smoke" : "full", hw);
  const sim::Scenario scenario = bench_scenario();
  util::Json::Array entries;

  // ---- Sections 1 and 2: sync baseline and async points, alternating ---
  // Point 0 is the sync baseline; then the async worker sweep and the
  // batched workers (envs_per_worker > 1).
  struct Point {
    std::size_t workers;  ///< 0 for the sync baseline
    std::size_t envs_per_worker;
    std::vector<ThroughputResult> runs;
  };
  std::vector<Point> points{{0, 1, {}}, {1, 1, {}}, {2, 1, {}}, {4, 1, {}},
                            {8, 1, {}}, {1, 2, {}}, {1, 4, {}}, {1, 8, {}}};
  for (std::size_t repeat = 0; repeat < kRepeats; ++repeat) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      Point& p = points[repeat % 2 == 0 ? i : points.size() - 1 - i];
      p.runs.push_back(p.workers == 0 ? run_sync(scenario)
                                      : run_async(scenario, p.workers, p.envs_per_worker));
    }
  }
  // The median run by env_steps/s, and every run's rate for the spread.
  const auto median_run = [](const Point& p) {
    std::vector<ThroughputResult> runs = p.runs;
    std::sort(runs.begin(), runs.end(), [](const ThroughputResult& a, const ThroughputResult& b) {
      return a.steps_per_sec() < b.steps_per_sec();
    });
    return runs[runs.size() / 2];
  };
  const auto run_rates = [](const Point& p) {
    util::Json::Array rates;
    for (const ThroughputResult& r : p.runs) rates.emplace_back(r.steps_per_sec());
    return util::Json(std::move(rates));
  };

  const ThroughputResult sync_result = median_run(points[0]);
  std::printf("medians of %zu alternating runs\n", kRepeats);
  std::printf("%-12s %8s %8s %12s %11s %10s %8s\n", "mode", "workers", "learner",
              "env_steps/s", "updates/s", "staleness", "speedup");
  std::printf("%-12s %8zu %8zu %12.0f %11.2f %10s %8s\n", "sync", sync_result.workers,
              sync_result.learner_threads, sync_result.steps_per_sec(),
              sync_result.updates_per_sec(), "-", "1.00x");
  entries.push_back(util::Json(util::Json::Object{
      {"kind", util::Json(std::string("sync_baseline"))},
      {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
      {"learner_threads", util::Json(sync_result.learner_threads)},
      {"repeats", util::Json(kRepeats)},
      {"env_steps_per_sec_runs", run_rates(points[0])},
      {"updates", util::Json(sync_result.updates)},
      {"env_steps", util::Json(sync_result.env_steps)},
      {"wall_ms", util::Json(sync_result.wall_ms)},
      {"env_steps_per_sec", util::Json(sync_result.steps_per_sec())},
      {"updates_per_sec", util::Json(sync_result.updates_per_sec())},
  }));

  for (std::size_t i = 1; i < points.size(); ++i) {
    const Point& p = points[i];
    const ThroughputResult r = median_run(p);
    const double speedup =
        sync_result.steps_per_sec() > 0.0 ? r.steps_per_sec() / sync_result.steps_per_sec()
                                          : 0.0;
    util::Json::Object entry{
        {"workers", util::Json(r.workers)},
        {"learner_threads", util::Json(r.learner_threads)},
        {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
        {"repeats", util::Json(kRepeats)},
        {"env_steps_per_sec_runs", run_rates(p)},
        {"updates", util::Json(r.updates)},
        {"env_steps", util::Json(r.env_steps)},
        {"wall_ms", util::Json(r.wall_ms)},
        {"env_steps_per_sec", util::Json(r.steps_per_sec())},
        {"updates_per_sec", util::Json(r.updates_per_sec())},
        {"mean_staleness", util::Json(r.mean_staleness)},
        {"speedup_vs_sync", util::Json(speedup)},
    };
    if (p.envs_per_worker == 1) {
      std::printf("%-12s %8zu %8zu %12.0f %11.2f %10.2f %7.2fx\n", "async", r.workers,
                  r.learner_threads, r.steps_per_sec(), r.updates_per_sec(),
                  r.mean_staleness, speedup);
      // True oversubscription only: more than one worker AND the resolved
      // partition does not fit the machine. The 1-worker point on a 1-core
      // host runs the minimum viable worker+learner pair — timeshared, but
      // not an oversubscribed sweep point.
      const rl::ThreadBudget budget = rl::resolve_thread_budget(p.workers, 0, hw);
      const bool oversubscribed =
          hw > 0 && budget.workers > 1 && budget.workers + budget.learner_threads > hw;
      entry["kind"] = util::Json(std::string("async_sweep"));
      entry["requested_workers"] = util::Json(p.workers);
      entry["oversubscribed"] = util::Json(oversubscribed);
    } else {
      // Each worker drives B concurrent envs through fused forwards; the
      // mean_envs_per_round column shows how many episodes one
      // staleness-gate pass delivered — the larger merged update windows
      // the batched mode exists to produce.
      std::printf("%-12s %8zu %8zu %12.0f %11.2f %10.2f %7.2fx  (B=%zu, %.2f envs/round)\n",
                  "async_batch", r.workers, r.learner_threads, r.steps_per_sec(),
                  r.updates_per_sec(), r.mean_staleness, speedup, p.envs_per_worker,
                  r.mean_envs_per_round);
      entry["kind"] = util::Json(std::string("async_batched_sweep"));
      entry["envs_per_worker"] = util::Json(p.envs_per_worker);
      entry["mean_envs_per_round"] = util::Json(r.mean_envs_per_round);
    }
    entries.push_back(util::Json(std::move(entry)));
  }

  // ---- Section 3: lockstep bit-parity ----------------------------------
  const bool parity = lockstep_parity(scenario, /*envs_per_worker=*/1);
  std::printf("lockstep parity (1 worker, staleness 0 vs sync): %s\n",
              parity ? "IDENTICAL" : "DIVERGED");
  entries.push_back(util::Json(util::Json::Object{
      {"kind", util::Json(std::string("lockstep_parity"))},
      {"envs_per_worker", util::Json(std::size_t{1})},
      {"parameters_bit_identical", util::Json(parity)},
  }));
  const bool batched_parity = lockstep_parity(scenario, /*envs_per_worker=*/4);
  std::printf("lockstep parity (batched worker, B=4 vs sync): %s\n",
              batched_parity ? "IDENTICAL" : "DIVERGED");
  entries.push_back(util::Json(util::Json::Object{
      {"kind", util::Json(std::string("lockstep_parity"))},
      {"envs_per_worker", util::Json(std::size_t{4})},
      {"parameters_bit_identical", util::Json(batched_parity)},
  }));

  const util::Json doc(util::Json::Object{
      {"schema", util::Json("dosc.bench.v1")},
      {"benchmark", util::Json("train_async")},
      {"smoke", util::Json(smoke())},
      {"hardware_threads", util::Json(static_cast<std::size_t>(hw))},
      {"results", util::Json(std::move(entries))},
  });
  const std::string path = "BENCH_train_async.json";
  doc.save_file(path, 2);
  std::printf("wrote %s\n", path.c_str());
  return (parity && batched_parity) ? 0 : 1;
}
