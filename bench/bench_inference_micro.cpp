// Microbenchmark behind Fig. 9b, via google-benchmark: the cost of one
// coordination decision as a function of the topology.
//
//  * BM_DistributedDecision: one local actor forward with the paper's
//    2x256 network. The observation size is 4*Delta_G + 4, so the cost
//    tracks the network DEGREE, not the node count — Abilene (11 nodes)
//    and Interroute (110 nodes) are within ~2x of each other.
//  * BM_CentralRuleUpdate: the centralized baseline's periodic decision —
//    its observation is O(|V|) and it decides for every component, so the
//    cost grows with the network size.
//  * BM_HeuristicDecision: GCASP-style neighbour scan, for reference.
//  * BM_ShortestPathDecision: SP's next-hop choice, for reference.
//  * BM_BatchedForward: one Mlp::predict_batch of the 2x256 actor (Abilene
//    observation size) per batch size and compute-thread count, as rows/s
//    plus the share of pool chunks run by helper threads.
//  * BM_PoolSpacedJobs: a caller alternating serial work of about 0.5, 1
//    or 2 spin windows with a forward-sized pool job (four ~20 us chunks),
//    as the time of each: shows what spinning helpers cost the caller's
//    serial work, and what parked helpers cost the next job.
//
// Besides google-benchmark's mean, each family records per-decision wall
// clock into a telemetry histogram and reports p50_us/p99_us counters; the
// custom main dumps everything to BENCH_inference_micro.json
// ("dosc.bench.v1"). Set DOSC_TELEMETRY=0 to skip the per-iteration clock
// reads entirely — the loop bodies are then identical to the untimed ones.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>

#include "core/observation.hpp"
#include "net/topology_zoo.hpp"
#include "nn/parallel.hpp"
#include "rl/actor_critic.hpp"
#include "telemetry/histogram.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

using namespace dosc;

namespace {

const net::Network& topology(int index) {
  static const net::Network nets[] = {net::abilene(), net::bt_europe(),
                                      net::china_telecom(), net::interroute()};
  return nets[index];
}

const char* topology_label(int index) {
  static const char* labels[] = {"Abilene", "BT_Europe", "China_Telecom", "Interroute"};
  return labels[index];
}

rl::ActorCritic make_policy(std::size_t obs_dim, std::size_t actions) {
  rl::ActorCriticConfig config;
  config.obs_dim = obs_dim;
  config.num_actions = actions;
  config.hidden = {256, 256};  // paper-scale network
  config.seed = 1;
  return rl::ActorCritic(config);
}

bool telemetry_on() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_TELEMETRY");
    return env == nullptr || std::string_view(env) != "0";
  }();
  return on;
}

/// Per-(algo, topology) latency histograms, keyed "algo/topology". Merged
/// across repetitions; dumped by main() into BENCH_inference_micro.json.
std::map<std::string, telemetry::Histogram>& results() {
  static std::map<std::string, telemetry::Histogram> map;
  return map;
}

void report(benchmark::State& state, const char* algo, int topo_index,
            const telemetry::Histogram& hist) {
  if (hist.count() == 0) return;
  state.counters["p50_us"] = hist.percentile(50.0);
  state.counters["p99_us"] = hist.percentile(99.0);
  const std::string key = std::string(algo) + "/" + topology_label(topo_index);
  auto [it, inserted] =
      results().emplace(key, telemetry::Histogram(telemetry::latency_histogram_config()));
  it->second.merge(hist);
}

}  // namespace

static void BM_DistributedDecision(benchmark::State& state) {
  const net::Network& network = topology(static_cast<int>(state.range(0)));
  const std::size_t degree = network.max_degree();
  const rl::ActorCritic policy = make_policy(core::observation_dim(degree), degree + 1);
  std::vector<double> obs(core::observation_dim(degree), 0.2);
  util::Rng rng(1);
  state.SetLabel(std::string(topology_label(static_cast<int>(state.range(0)))) + " |V|=" +
                 std::to_string(network.num_nodes()) + " deg=" + std::to_string(degree));
  // The untimed loop comes first and returns early so that, with telemetry
  // off, neither the histogram allocation nor the timed loop's code perturbs
  // the hot path — it stays identical to the plain benchmark.
  if (!telemetry_on()) {
    for (auto _ : state) {
      obs[1] = rng.uniform(0.0, 1.0);  // defeat trivial caching
      benchmark::DoNotOptimize(policy.greedy_action(obs));
    }
    return;
  }
  telemetry::Histogram hist(telemetry::latency_histogram_config());
  for (auto _ : state) {
    obs[1] = rng.uniform(0.0, 1.0);  // defeat trivial caching
    const util::Timer timer;
    benchmark::DoNotOptimize(policy.greedy_action(obs));
    hist.add(timer.elapsed_micros());
  }
  report(state, "DistDRL", static_cast<int>(state.range(0)), hist);
}
BENCHMARK(BM_DistributedDecision)->DenseRange(0, 3);

static void BM_CentralRuleUpdate(benchmark::State& state) {
  const net::Network& network = topology(static_cast<int>(state.range(0)));
  const std::size_t num_nodes = network.num_nodes();
  const std::size_t num_components = 3;  // the video-streaming chain
  const rl::ActorCritic policy = make_policy(num_nodes + num_components + 1, num_nodes);
  std::vector<double> obs(num_nodes + num_components + 1, 0.3);
  util::Rng rng(2);
  state.SetLabel(std::string(topology_label(static_cast<int>(state.range(0)))) + " |V|=" +
                 std::to_string(num_nodes));
  if (!telemetry_on()) {
    for (auto _ : state) {
      obs[0] = rng.uniform(0.0, 1.0);
      // One rule decision per component, as CentralDrlCoordinator does.
      for (std::size_t c = 0; c < num_components; ++c) {
        obs[num_nodes + c] = 1.0;
        benchmark::DoNotOptimize(policy.greedy_action(obs));
        obs[num_nodes + c] = 0.0;
      }
    }
    return;
  }
  telemetry::Histogram hist(telemetry::latency_histogram_config());
  for (auto _ : state) {
    obs[0] = rng.uniform(0.0, 1.0);
    const util::Timer timer;
    // One rule decision per component, as CentralDrlCoordinator does.
    for (std::size_t c = 0; c < num_components; ++c) {
      obs[num_nodes + c] = 1.0;
      benchmark::DoNotOptimize(policy.greedy_action(obs));
      obs[num_nodes + c] = 0.0;
    }
    hist.add(timer.elapsed_micros());
  }
  report(state, "CentralDRL", static_cast<int>(state.range(0)), hist);
}
BENCHMARK(BM_CentralRuleUpdate)->DenseRange(0, 3);

static void BM_HeuristicDecision(benchmark::State& state) {
  const net::Network& network = topology(static_cast<int>(state.range(0)));
  const net::ShortestPaths sp(network);
  util::Rng rng(3);
  auto scan = [&](net::NodeId v) {
    // Neighbour scan comparable to GCASP's candidate ranking.
    double best = 1e18;
    int best_action = 0;
    const auto& neighbors = network.neighbors(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const double d = sp.delay_via(v, neighbors[i], 0);
      if (d < best) {
        best = d;
        best_action = static_cast<int>(i + 1);
      }
    }
    return best_action;
  };
  state.SetLabel(topology_label(static_cast<int>(state.range(0))));
  if (!telemetry_on()) {
    for (auto _ : state) {
      const net::NodeId v = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(network.num_nodes()) - 1));
      benchmark::DoNotOptimize(scan(v));
    }
    return;
  }
  telemetry::Histogram hist(telemetry::latency_histogram_config());
  for (auto _ : state) {
    const net::NodeId v = static_cast<net::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(network.num_nodes()) - 1));
    const util::Timer timer;
    benchmark::DoNotOptimize(scan(v));
    hist.add(timer.elapsed_micros());
  }
  report(state, "GCASP", static_cast<int>(state.range(0)), hist);
}
BENCHMARK(BM_HeuristicDecision)->DenseRange(0, 3);

static void BM_ShortestPathDecision(benchmark::State& state) {
  const net::Network& network = topology(static_cast<int>(state.range(0)));
  const net::ShortestPaths sp(network);
  util::Rng rng(4);
  const net::NodeId egress = static_cast<net::NodeId>(network.num_nodes() - 1);
  auto next_hop = [&](net::NodeId v) {
    // SP's decide(): forward along the delay-shortest path to the egress.
    double best = 1e18;
    int best_action = 0;
    const auto& neighbors = network.neighbors(v);
    for (std::size_t i = 0; i < neighbors.size(); ++i) {
      const double d = sp.delay_via(v, neighbors[i], egress);
      if (d < best) {
        best = d;
        best_action = static_cast<int>(i + 1);
      }
    }
    return best_action;
  };
  state.SetLabel(topology_label(static_cast<int>(state.range(0))));
  if (!telemetry_on()) {
    for (auto _ : state) {
      const net::NodeId v = static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(network.num_nodes()) - 1));
      benchmark::DoNotOptimize(next_hop(v));
    }
    return;
  }
  telemetry::Histogram hist(telemetry::latency_histogram_config());
  for (auto _ : state) {
    const net::NodeId v = static_cast<net::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(network.num_nodes()) - 1));
    const util::Timer timer;
    benchmark::DoNotOptimize(next_hop(v));
    hist.add(timer.elapsed_micros());
  }
  report(state, "SP", static_cast<int>(state.range(0)), hist);
}
BENCHMARK(BM_ShortestPathDecision)->DenseRange(0, 3);

static void BM_BatchedForward(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const nn::ComputeThreadsGuard guard(static_cast<std::size_t>(state.range(1)));
  const std::size_t degree = topology(0).max_degree();
  const std::size_t obs_dim = core::observation_dim(degree);
  const rl::ActorCritic policy = make_policy(obs_dim, degree + 1);
  util::Rng rng(2);
  std::vector<double> obs(batch * obs_dim);
  for (double& v : obs) v = rng.uniform(0.0, 1.0);
  nn::Mlp::BatchScratch scratch;
  std::vector<double> logits;
  policy.actor().predict_batch(obs.data(), batch, logits, scratch);  // warm-up
  const nn::PoolStats before = nn::pool_stats();
  for (auto _ : state) {
    policy.actor().predict_batch(obs.data(), batch, logits, scratch);
    benchmark::DoNotOptimize(logits.data());
    benchmark::ClobberMemory();
  }
  const nn::PoolStats after = nn::pool_stats();
  state.counters["rows_per_s"] = benchmark::Counter(
      static_cast<double>(batch * state.iterations()), benchmark::Counter::kIsRate);
  const std::uint64_t chunks = after.chunks - before.chunks;
  state.counters["helper_share"] =
      chunks == 0 ? 0.0
                  : static_cast<double>(after.helper_chunks - before.helper_chunks) /
                        static_cast<double>(chunks);
}
BENCHMARK(BM_BatchedForward)->ArgsProduct({{4, 16, 32}, {1, 2, 4}})->UseRealTime();

namespace {

/// A fixed amount of serial arithmetic: `units` dependent multiply-adds.
double serial_work(std::size_t units, double seed) {
  double x = seed;
  for (std::size_t i = 0; i < units; ++i) x = x * 0.999999 + 1e-7;
  return x;
}

/// Work units per microsecond, measured once on this host so the spaced
/// gaps land near their nominal fractions of the spin window.
std::size_t units_per_us() {
  static const std::size_t rate = [] {
    const std::size_t units = 1 << 22;
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(serial_work(units, 1.0));
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0).count();
    return std::max<std::size_t>(1, static_cast<std::size_t>(units / std::max(us, 1.0)));
  }();
  return rate;
}

}  // namespace

static void BM_PoolSpacedJobs(benchmark::State& state) {
  const nn::ComputeThreadsGuard guard(4);
  const std::size_t gap_units = units_per_us() * static_cast<std::size_t>(state.range(0));
  const std::size_t chunk_units = units_per_us() * 20;
  double sink[4] = {};
  double serial_s = 0.0;
  double job_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(serial_work(gap_units, sink[0]));
    const auto t1 = std::chrono::steady_clock::now();
    nn::parallel_chunks(4, [&](std::size_t i) { sink[i] = serial_work(chunk_units, sink[i]); });
    const auto t2 = std::chrono::steady_clock::now();
    serial_s += std::chrono::duration<double>(t1 - t0).count();
    job_s += std::chrono::duration<double>(t2 - t1).count();
  }
  benchmark::DoNotOptimize(sink);
  const double n = static_cast<double>(state.iterations());
  state.counters["serial_us"] = serial_s / n * 1e6;
  state.counters["job_us"] = job_s / n * 1e6;
}
// Nominal gaps of 0.5, 1 and 2 spin windows (1 ms each).
BENCHMARK(BM_PoolSpacedJobs)->Arg(500)->Arg(1000)->Arg(2000)->UseRealTime();

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!results().empty()) {
    util::Json::Array entries;
    for (const auto& [key, hist] : results()) {
      const std::size_t slash = key.find('/');
      entries.push_back(util::Json(util::Json::Object{
          {"algo", util::Json(key.substr(0, slash))},
          {"scenario", util::Json(key.substr(slash + 1))},
          {"decision_us",
           util::Json(util::Json::Object{
               {"mean", util::Json(hist.mean())},
               {"p50", util::Json(hist.percentile(50.0))},
               {"p90", util::Json(hist.percentile(90.0))},
               {"p99", util::Json(hist.percentile(99.0))},
               {"count", util::Json(static_cast<std::size_t>(hist.count()))},
           })},
      }));
    }
    const util::Json doc(util::Json::Object{
        {"schema", util::Json("dosc.bench.v1")},
        {"benchmark", util::Json("inference_micro")},
        {"results", util::Json(std::move(entries))},
    });
    doc.save_file("BENCH_inference_micro.json", 2);
  }
  return 0;
}
