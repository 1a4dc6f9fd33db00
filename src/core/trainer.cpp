#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/batched_episode.hpp"
#include "nn/parallel.hpp"
#include "rl/async_trainer.hpp"
#include "rl/batched_rollout.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace dosc::core {

TrainingConfig TrainingConfig::paper_scale() {
  TrainingConfig config;
  config.hidden = {256, 256};
  config.num_seeds = 10;
  config.parallel_envs = 4;
  config.iterations = 300;
  config.train_episode_time = 5000.0;
  config.eval_episodes = 5;
  config.eval_episode_time = 20000.0;
  return config;
}

rl::ActorCritic TrainedPolicy::instantiate() const {
  return rl::ActorCritic(net_config, parameters);
}

std::uint64_t episode_seed(std::uint64_t base, std::size_t seed_index, std::size_t iteration,
                           std::size_t env_index) noexcept {
  std::uint64_t h = base;
  h = h * 0x9E3779B97F4A7C15ULL + seed_index + 1;
  h = h * 0xBF58476D1CE4E5B9ULL + iteration + 1;
  h = h * 0x94D049BB133111EBULL + env_index + 1;
  return h ^ (h >> 31);
}

namespace {

/// Observer that tallies the shaped reward of an episode driven by an
/// arbitrary (e.g. greedy) coordinator — used for evaluation.
class RewardTally final : public sim::FlowObserver {
 public:
  RewardTally(const RewardConfig& config, const sim::Simulator& sim)
      : shaper_(config, sim.shortest_paths().diameter()), sim_(sim) {}

  void on_completed(const sim::Flow&, double) override { total_ += shaper_.on_completed(); }
  void on_dropped(const sim::Flow&, sim::DropReason, double) override {
    total_ += shaper_.on_dropped();
  }
  void on_component_processed(const sim::Flow& flow, net::NodeId, double) override {
    total_ += shaper_.on_component_processed(sim_.service_of(flow).length());
  }
  void on_forwarded(const sim::Flow&, net::NodeId, net::LinkId link, double) override {
    total_ += shaper_.on_forwarded(sim_.network().link(link).delay);
  }
  void on_parked(const sim::Flow&, net::NodeId, double) override {
    total_ += shaper_.on_parked();
  }

  double total() const noexcept { return total_; }

 private:
  RewardShaper shaper_;
  const sim::Simulator& sim_;
  double total_ = 0.0;
};

/// rl::RolloutEpisode for the async trainer's batched worker mode: one
/// TrainingEnv + YieldingEpisode pair per episode ticket, built from the
/// same seed grid (and the same rng stream `es * 31 + 7`) as the RolloutFn
/// below, so the recorded trajectories are bit-identical to the
/// one-episode-at-a-time loop.
class AsyncRolloutEpisode final : public rl::RolloutEpisode {
 public:
  AsyncRolloutEpisode(const sim::Scenario& scenario, std::uint64_t seed,
                      const rl::ActorCritic& policy, rl::TrajectoryBuffer& buffer,
                      const RewardConfig& reward, std::size_t max_degree,
                      const ObservationMask& mask)
      : env_(policy, buffer, reward, max_degree, util::Rng(seed * 31 + 7), mask,
             /*record_behavior_logp=*/true),
        episode_(scenario, seed, env_, env_, &env_) {}

  bool advance_to_decision() override { return episode_.advance_to_decision(); }
  void write_observation(std::span<double> out) override {
    episode_.write_observation(out);
  }
  void apply_logits(std::span<const double> logits) override {
    episode_.apply_logits(logits);
  }
  double finish() override {
    episode_.finish();
    return env_.episode_reward();
  }

 private:
  TrainingEnv env_;        // must outlive episode_ (constructed first)
  YieldingEpisode episode_;
};

/// One seed's training in the decoupled async actor/learner mode: the
/// simulator side of rl::AsyncTrainer. Episode g reuses the synchronous
/// trainer's seed grid — iteration g / l, environment g % l — so async runs
/// sample from the same traffic distribution, and the lockstep
/// configuration (1 worker, max_staleness 0) replays the synchronous
/// episode stream exactly.
void run_async_seed(rl::ActorCritic& net, const TrainingConfig& config,
                    const sim::Scenario& train_scenario, std::size_t max_degree,
                    std::size_t obs_dim, std::size_t seed_index,
                    const ProgressCallback& progress) {
  rl::AsyncTrainerConfig async_config;
  async_config.num_workers = config.async.num_workers;
  async_config.episodes_per_update = config.parallel_envs;
  async_config.updates = config.iterations;
  async_config.max_update_steps = config.max_update_steps;
  async_config.queue_capacity = config.async.queue_capacity;
  async_config.max_staleness = config.async.max_staleness;
  async_config.learner_threads = config.async.learner_threads;
  async_config.obs_dim = obs_dim;
  async_config.gamma = config.gamma;
  async_config.updater = config.updater;
  async_config.merge_seed = [&config, seed_index](std::size_t update) {
    return episode_seed(config.seed_base, seed_index, update, 777);
  };
  async_config.envs_per_worker = config.async.envs_per_worker;
  if (config.async.envs_per_worker > 1) {
    async_config.episode_factory =
        [&config, &train_scenario, max_degree, seed_index](
            std::size_t /*worker*/, std::size_t episode, const rl::ActorCritic& policy,
            rl::TrajectoryBuffer& buffer) -> std::unique_ptr<rl::RolloutEpisode> {
      const std::size_t iteration = episode / config.parallel_envs;
      const std::size_t env_index = episode % config.parallel_envs;
      const std::uint64_t es =
          episode_seed(config.seed_base, seed_index, iteration, env_index);
      return std::make_unique<AsyncRolloutEpisode>(train_scenario, es, policy, buffer,
                                                   config.reward, max_degree,
                                                   config.observation_mask);
    };
  }
  rl::RolloutFn rollout = [&config, &train_scenario, max_degree, seed_index](
                              std::size_t /*worker*/, std::size_t episode,
                              const rl::ActorCritic& policy, rl::TrajectoryBuffer& buffer) {
    const std::size_t iteration = episode / config.parallel_envs;
    const std::size_t env_index = episode % config.parallel_envs;
    const std::uint64_t es = episode_seed(config.seed_base, seed_index, iteration, env_index);
    TrainingEnv env(policy, buffer, config.reward, max_degree, util::Rng(es * 31 + 7),
                    config.observation_mask, /*record_behavior_logp=*/true);
    sim::Simulator sim(train_scenario, es);
    sim.run(env, &env);
    return env.episode_reward();
  };
  rl::AsyncTrainer trainer(async_config, std::move(rollout));
  rl::AsyncProgressFn on_progress;
  if (progress) {
    on_progress = [&progress, seed_index](const rl::AsyncProgress& p) {
      progress({seed_index, p.update, p.mean_episode_reward, p.stats});
    };
  }
  trainer.run(net, on_progress);
}

}  // namespace

EvalResult evaluate_policy(const sim::Scenario& scenario, const rl::ActorCritic& policy,
                           const RewardConfig& reward, std::size_t episodes,
                           double episode_time, std::uint64_t seed_base, ObservationMask mask,
                           std::size_t parallel_episodes, std::size_t batch_envs) {
  const sim::Scenario eval_scenario = scenario.with_end_time(episode_time);
  const std::size_t max_degree = scenario.network().max_degree();
  struct EpisodeResult {
    double success = 0.0;
    double reward = 0.0;
    double delay = 0.0;
    bool has_delay = false;
  };
  std::vector<EpisodeResult> per_episode(episodes);
  const auto run_episode = [&](std::size_t e) {
    sim::Simulator sim(eval_scenario, seed_base + e);
    DistributedDrlCoordinator coordinator(policy, max_degree,
                                          /*stochastic=*/false, util::Rng(0), mask);
    RewardTally tally(reward, sim);
    const sim::SimMetrics metrics = sim.run(coordinator, &tally);
    EpisodeResult& slot = per_episode[e];
    slot.success = metrics.success_ratio();
    slot.reward = tally.total();
    slot.has_delay = metrics.e2e_delay.count() > 0;
    if (slot.has_delay) slot.delay = metrics.e2e_delay.mean();
  };
  if (parallel_episodes == 0) parallel_episodes = std::thread::hardware_concurrency();
  if (batch_envs == 0) batch_envs = 1;
  const std::size_t obs_dim = policy.actor().input_size();
  // Episodes are claimed one at a time off a shared counter. In the classic
  // path each worker runs its claim to completion; in the batched flavor
  // each worker streams its claims through a BatchedRollout that keeps
  // batch_envs episodes in flight, so the achieved GEMM width stays at the
  // nominal batch across episode boundaries instead of draining into a
  // narrow tail. Each episode keeps its own simulator/coordinator/tally and
  // greedy decisions depend only on the episode's own logit row, so results
  // (and event digests) equal run_episode's bit for bit at any width or
  // claim interleaving.
  std::atomic<std::size_t> next_episode{0};
  const auto run_episode_stream = [&](rl::BatchedRollout& driver) {
    std::vector<std::unique_ptr<DistributedDrlCoordinator>> coordinators;
    std::vector<std::unique_ptr<YieldingEpisode>> stream;
    std::vector<std::unique_ptr<RewardTally>> tallies;
    std::vector<std::size_t> claimed;
    const auto source = [&]() -> rl::BatchedEnv* {
      const std::size_t e = next_episode.fetch_add(1, std::memory_order_relaxed);
      if (e >= episodes) return nullptr;
      coordinators.push_back(std::make_unique<DistributedDrlCoordinator>(
          policy, max_degree, /*stochastic=*/false, util::Rng(0), mask));
      stream.push_back(std::make_unique<YieldingEpisode>(eval_scenario, seed_base + e,
                                                         *coordinators.back(),
                                                         *coordinators.back()));
      // The tally needs the simulator reference, which the episode owns;
      // the observer is consumed lazily at the first advance, so attaching
      // it after construction is safe.
      tallies.push_back(std::make_unique<RewardTally>(reward, stream.back()->simulator()));
      stream.back()->set_observer(tallies.back().get());
      claimed.push_back(e);
      return stream.back().get();
    };
    driver.run(batch_envs, source);
    for (std::size_t i = 0; i < claimed.size(); ++i) {
      const sim::SimMetrics metrics = stream[i]->finish();
      EpisodeResult& slot = per_episode[claimed[i]];
      slot.success = metrics.success_ratio();
      slot.reward = tallies[i]->total();
      slot.has_delay = metrics.e2e_delay.count() > 0;
      if (slot.has_delay) slot.delay = metrics.e2e_delay.mean();
    }
  };
  const auto run_claims = [&](rl::BatchedRollout* driver) {
    if (driver != nullptr) {
      run_episode_stream(*driver);
      return;
    }
    for (std::size_t e = next_episode.fetch_add(1, std::memory_order_relaxed); e < episodes;
         e = next_episode.fetch_add(1, std::memory_order_relaxed)) {
      run_episode(e);
    }
  };
  const std::size_t claim_units = (episodes + batch_envs - 1) / batch_envs;
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(parallel_episodes, claim_units));
  if (workers <= 1) {
    std::unique_ptr<rl::BatchedRollout> driver;
    if (batch_envs > 1) driver = std::make_unique<rl::BatchedRollout>(policy.actor(), obs_dim);
    run_claims(driver.get());
  } else {
    // Workers fill only their own claims' result slots, so no cross-thread
    // state is touched during a run.
    std::exception_ptr first_error;
    std::mutex error_mu;
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        try {
          std::unique_ptr<rl::BatchedRollout> driver;
          if (batch_envs > 1) {
            driver = std::make_unique<rl::BatchedRollout>(policy.actor(), obs_dim);
          }
          run_claims(driver.get());
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }

  // Deterministic merge in ascending episode order: the RunningStats see the
  // exact update sequence of the sequential loop, so the result is
  // bit-identical at every parallelism level.
  EvalResult result;
  util::RunningStats success;
  util::RunningStats rewards;
  util::RunningStats delays;
  for (const EpisodeResult& ep : per_episode) {
    success.add(ep.success);
    rewards.add(ep.reward);
    if (ep.has_delay) delays.add(ep.delay);
  }
  result.success_ratio = success.mean();
  result.mean_reward = rewards.mean();
  result.mean_e2e_delay = delays.mean();
  return result;
}

TrainedPolicy train_distributed_policy(const sim::Scenario& scenario,
                                       const TrainingConfig& config,
                                       const ProgressCallback& progress) {
  if (config.parallel_envs == 0 || config.num_seeds == 0) {
    throw std::invalid_argument("train_distributed_policy: seeds/envs must be > 0");
  }
  const std::size_t max_degree = scenario.network().max_degree();
  const std::size_t obs_dim = observation_dim(max_degree);
  const std::size_t num_actions = max_degree + 1;
  const sim::Scenario train_scenario = scenario.with_end_time(config.train_episode_time);

  TrainedPolicy best;
  best.max_degree = max_degree;
  best.eval_success_ratio = -1.0;
  double best_reward = -1e300;

  for (std::size_t seed_index = 0; seed_index < config.num_seeds; ++seed_index) {
    rl::ActorCriticConfig net_config;
    net_config.obs_dim = obs_dim;
    net_config.num_actions = num_actions;
    net_config.hidden = config.hidden;
    net_config.seed = config.seed_base + seed_index;
    rl::ActorCritic net(net_config);
    rl::Updater updater(config.updater);

    if (config.async.enabled) {
      // Decoupled actor/learner: persistent rollout workers and a learner
      // thread replace the per-iteration fork/join loop below (which the
      // sync_iterations guard then skips). Evaluation and seed selection
      // are shared by both modes.
      run_async_seed(net, config, train_scenario, max_degree, obs_dim, seed_index,
                     progress);
    }
    const std::size_t sync_iterations = config.async.enabled ? 0 : config.iterations;
    for (std::size_t iteration = 0; iteration < sync_iterations; ++iteration) {
      // A3C-style: l workers roll out the *same* policy snapshot in
      // parallel; their experience is merged into one synchronous update.
      const std::vector<double> snapshot = net.get_parameters();
      std::vector<rl::Batch> batches(config.parallel_envs);
      std::vector<double> episode_rewards(config.parallel_envs, 0.0);
      std::vector<std::exception_ptr> errors(config.parallel_envs);

      auto worker = [&](std::size_t env_index) {
        try {
          DOSC_TRACE_SCOPE("train", "rollout");
          const util::Timer rollout_timer;
          rl::ActorCritic local(net_config, snapshot);
          rl::TrajectoryBuffer buffer(config.gamma);
          const std::uint64_t es =
              episode_seed(config.seed_base, seed_index, iteration, env_index);
          TrainingEnv env(local, buffer, config.reward, max_degree, util::Rng(es * 31 + 7),
                          config.observation_mask);
          sim::Simulator sim(train_scenario, es);
          sim.run(env, &env);
          buffer.truncate_all();
          batches[env_index] = buffer.drain(local, obs_dim);
          episode_rewards[env_index] = env.episode_reward();
          if (telemetry::enabled()) {
            // Recorded locally, merged here from the worker thread: the
            // registry histograms are the cross-thread merge point.
            const double rollout_s = rollout_timer.elapsed_seconds();
            telemetry::Histogram local_hist(telemetry::latency_histogram_config());
            local_hist.add(rollout_s * 1e3);
            telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
            registry.merge_histogram("train.rollout_ms", local_hist);
            registry.counter("train.env_steps").add(batches[env_index].size());
            if (rollout_s > 0.0) {
              registry.observe("train.env_steps_per_s",
                               static_cast<double>(batches[env_index].size()) / rollout_s);
            }
          }
        } catch (...) {
          errors[env_index] = std::current_exception();
        }
      };

      if (config.batched_rollout) {
        // Batched alternative to the l rollout threads: all l environments
        // advance concurrently on this thread and their decision forwards
        // fuse into one predict_batch (which keeps the GEMM thread pool).
        // Each env still has its own rng/buffer and the forward pass is
        // deterministic at any thread count, so the batches — and the
        // parameter trajectory — are bit-identical to the threaded path.
        DOSC_TRACE_SCOPE("train", "rollout");
        const util::Timer rollout_timer;
        std::vector<rl::TrajectoryBuffer> buffers;
        std::vector<std::unique_ptr<TrainingEnv>> train_envs;
        std::vector<std::unique_ptr<YieldingEpisode>> eps;
        std::vector<rl::BatchedEnv*> env_ptrs;
        for (std::size_t e = 0; e < config.parallel_envs; ++e) {
          buffers.emplace_back(config.gamma);
        }
        for (std::size_t e = 0; e < config.parallel_envs; ++e) {
          const std::uint64_t es = episode_seed(config.seed_base, seed_index, iteration, e);
          train_envs.push_back(std::make_unique<TrainingEnv>(
              net, buffers[e], config.reward, max_degree, util::Rng(es * 31 + 7),
              config.observation_mask));
          eps.push_back(std::make_unique<YieldingEpisode>(
              train_scenario, es, *train_envs[e], *train_envs[e], train_envs[e].get()));
          env_ptrs.push_back(eps[e].get());
        }
        rl::BatchedRollout driver(net.actor(), obs_dim);
        driver.run(env_ptrs);
        std::size_t total_steps = 0;
        for (std::size_t e = 0; e < config.parallel_envs; ++e) {
          eps[e]->finish();
          buffers[e].truncate_all();
          batches[e] = buffers[e].drain(net, obs_dim);
          episode_rewards[e] = train_envs[e]->episode_reward();
          total_steps += batches[e].size();
        }
        if (telemetry::enabled()) {
          const double rollout_s = rollout_timer.elapsed_seconds();
          telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
          registry.observe("train.rollout_ms", rollout_s * 1e3);
          registry.counter("train.env_steps").add(total_steps);
          if (rollout_s > 0.0) {
            registry.observe("train.env_steps_per_s",
                             static_cast<double>(total_steps) / rollout_s);
          }
        }
      } else {
        // The l rollout workers own the machine for this phase: any batch
        // linear algebra they trigger runs inline instead of competing with
        // them for cores. The synchronous update below (after the join) gets
        // the full compute-thread budget back.
        nn::ComputeThreadsGuard rollout_guard(1);
        if (config.parallel_envs == 1) {
          worker(0);
        } else {
          std::vector<std::thread> threads;
          threads.reserve(config.parallel_envs);
          for (std::size_t e = 0; e < config.parallel_envs; ++e) {
            threads.emplace_back(worker, e);
          }
          for (std::thread& t : threads) t.join();
        }
      }
      for (const std::exception_ptr& err : errors) {
        if (err) std::rethrow_exception(err);
      }

      // Merge worker batches; cap the update size with a uniform subsample
      // so one update's cost stays bounded regardless of episode length.
      // (rl::merge_batches_into is this trainer's historical inline merge,
      // hoisted so the async learner shares it bit for bit.)
      util::Rng sample_rng(episode_seed(config.seed_base, seed_index, iteration, 777));
      rl::Batch merged;
      rl::merge_batches_into(merged, batches, obs_dim, config.max_update_steps, sample_rng);

      rl::UpdateStats stats;
      {
        DOSC_TRACE_SCOPE("train", "update");
        const util::Timer update_timer;
        stats = updater.update(net, merged);
        if (telemetry::enabled()) {
          telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::global();
          registry.observe("train.update_ms", update_timer.elapsed_millis());
          registry.counter("train.updates").add(1);
          registry.counter("train.iterations").add(1);
          double reward_sum = 0.0;
          for (const double r : episode_rewards) reward_sum += r;
          registry.gauge("train.mean_episode_reward")
              .set(reward_sum / static_cast<double>(config.parallel_envs));
        }
      }
      if (progress) {
        double mean_reward = 0.0;
        for (const double r : episode_rewards) mean_reward += r;
        mean_reward /= static_cast<double>(config.parallel_envs);
        progress({seed_index, iteration, mean_reward, stats});
      }
    }

    // Greedy evaluation; the best seed's network is deployed (Alg. 1 l.13).
    const EvalResult eval =
        evaluate_policy(scenario, net, config.reward, config.eval_episodes,
                        config.eval_episode_time, /*seed_base=*/9000 + seed_index,
                        config.observation_mask, config.eval_parallel, config.eval_batch);
    best.per_seed_success.push_back(eval.success_ratio);
    if (config.verbose) {
      util::Log(util::LogLevel::kInfo, "trainer")
          << "seed " << seed_index << ": eval success " << eval.success_ratio << ", reward "
          << eval.mean_reward;
    }
    const bool better = eval.success_ratio > best.eval_success_ratio ||
                        (eval.success_ratio == best.eval_success_ratio &&
                         eval.mean_reward > best_reward);
    if (better) {
      best.net_config = net_config;
      best.parameters = net.get_parameters();
      best.eval_success_ratio = eval.success_ratio;
      best.eval_reward = eval.mean_reward;
      best_reward = eval.mean_reward;
    }
  }
  return best;
}

}  // namespace dosc::core
