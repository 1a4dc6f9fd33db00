// Shared plumbing of the benchmark: options, results, clocks, statistics,
// run metadata, and the per-layer span accounting of traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "rl/batched_rollout.hpp"
#include "sim/metrics.hpp"
#include "util/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "perfbench/data";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One workload run. `metrics` holds the end-to-end metrics of an untraced
/// run or the per-layer metrics of a traced one.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed output checks; empty = correct
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void fail(const std::string& what) { errors.push_back(what); }
};

inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Throughput of a run from its repetitions of identical work: the best
/// one. A shared host only ever slows a repetition down, and its quiet
/// spells come and go within seconds, so the fastest repetition is the
/// steadiest estimate of what the code costs.
double best_rate(const std::string& what, const std::vector<double>& rates);

/// Prints the best, median and worst of a run's per-repetition rates.
void print_rates(const std::string& what, const std::vector<double>& rates);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Stream `stream` of the workload seed: decorrelated, deterministic.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Recorded per-episode results the eval and sim workloads must reproduce.
std::string expected_path(const Options& options);

/// Hardware threads, CPU model, dispatched ISA, compute threads.
void print_run_metadata(const Options& options);

/// Runs `setup` five times and returns the median wall time of one call;
/// the object built by the last call is the one the workload keeps.
template <typename F>
double time_setup(F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < 5; ++i) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
  }
  return median(times);
}

/// Layer time accounting of one traced run: busy seconds and calls per
/// layer, filled by LayeredEpisode around the calls it forwards.
struct LayerClock {
  double dispatch_s = 0.0;  ///< sim.dispatch: engine to the next decision
  double obs_s = 0.0;       ///< core.obs_build: observation row
  double forward_s = 0.0;   ///< nn.forward: last row written to first logits read
  double sample_s = 0.0;    ///< rl.sample: action from logits, resume
  std::uint64_t obs_calls = 0;
  std::int64_t obs_end_ns = 0;  ///< end of the round's last row; 0 once it was served
};

/// rl::BatchedEnv decorator that times each call into the wrapped episode
/// and records it as a span on the global tracer. The batched driver writes
/// every pending row, runs one forward, then hands out the logits, so the
/// gap from a round's last write_observation to its first apply_logits is
/// the forward; it is recorded as an nn.forward span.
class LayeredEpisode final : public dosc::rl::BatchedEnv {
 public:
  LayeredEpisode(dosc::rl::BatchedEnv& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}

  bool advance_to_decision() override;
  void write_observation(std::span<double> out) override;
  void apply_logits(std::span<const double> logits) override;

 private:
  dosc::rl::BatchedEnv* inner_;
  LayerClock* clock_;
};

/// One row of a traced run's self-time table.
struct LayerRow {
  std::string name;
  double seconds = 0.0;
  bool attributed = true;  ///< false: the remainder nobody measured
};

/// Prints the self-time share table and returns the share of `wall` the
/// attributed rows cover.
double print_layer_table(const std::string& workload, double wall,
                         const std::vector<LayerRow>& rows);

/// Prints the end-to-end metrics of the untraced and the traced phase side
/// by side and returns the relative change of `key` (traced vs untraced).
double print_overhead(const std::vector<Metric>& untraced, const std::vector<Metric>& traced,
                      const std::string& key);

/// The end-to-end metrics, in output order (see BENCHMARK.json).
std::vector<Metric> end_to_end_metrics(double setup_s, double ok_share, double rate_per_s);

/// Metrics registry and tracer on or off. The registry is never cleared:
/// instrumented code caches references to its counters in statics, which
/// MetricsRegistry::clear() would leave dangling. Readers take deltas.
void set_tracing(bool on);

/// Fills `result` with every per-layer metric, taking values from `values`
/// (0 for names it lacks). Throws on a name outside the vocabulary.
void emit_per_layer(Result& result, const std::map<std::string, double>& values);

/// The fixed 2x256 Abilene policy every inference workload serves.
dosc::core::TrainedPolicy load_fixed_policy(const Options& options);

/// The observable outcome of one episode: its SimMetrics counts, the mean
/// end-to-end delay bit for bit, and (when recorded) the event digest.
struct EpisodeRecord {
  std::string label;  ///< "<scenario>/<coordinator>"
  std::uint64_t seed = 0;
  std::uint64_t generated = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t decisions = 0;
  std::vector<std::uint64_t> drops_by_reason;
  double mean_e2e_delay = 0.0;
  std::uint64_t events = 0;  ///< dispatched events (0 = not recorded)
  std::uint64_t digest = 0;  ///< check::EventDigest (0 = not recorded)

  /// Equal metrics, and equal events/digest where both sides recorded them.
  bool same_as(const EpisodeRecord& other) const;
  std::string describe() const;
  dosc::util::Json to_json() const;
  static EpisodeRecord from_json(const dosc::util::Json& json);
};

EpisodeRecord make_record(const std::string& label, std::uint64_t seed,
                          const dosc::sim::SimMetrics& metrics);

/// Compares `actual` with the recorded list `expected` one by one and
/// appends a description of each difference to `result`.
void check_records(const std::string& what, const std::vector<EpisodeRecord>& actual,
                   const dosc::util::Json& expected, Result& result);

}  // namespace perfbench
