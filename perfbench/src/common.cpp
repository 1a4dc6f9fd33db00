#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "check/digest.hpp"
#include "core/policy_io.hpp"
#include "nn/gemm.hpp"
#include "nn/gemv.hpp"
#include "nn/parallel.hpp"
#include "nn/vecmath.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

namespace {

std::string policy_path(const Options& options) {
  return options.data_dir + "/policy_abilene_2x256.json";
}

double metric_value(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// The per-layer metric vocabulary, in output order. Traced runs report
/// every name; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"sim.dispatch_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.stale_ratio", "share"},
      {"sim.queue_peak", "count"},
      {"core.obs_build_s", "s"},
      {"core.obs_build_calls", "count"},
      {"nn.forward_s", "s"},
      {"nn.forward.rows_p50", "rows"},
      {"nn.gemv_row_share", "share"},
      {"nn.gemm.flops", "flop"},
      {"nn.gemv.flops", "flop"},
      {"nn.gflops", "GFLOP/s"},
      {"rl.sample_s", "s"},
      {"rl.rollout_s", "s"},
      {"rl.update_s", "s"},
      {"rl.update_rows", "count"},
      {"nn.kfac_s", "s"},
      {"train.other_s", "s"},
      {"serve.e2e_us.p50", "us"},
      {"serve.e2e_us.p99", "us"},
      {"serve.decide_us.p50", "us"},
      {"serve.decide_us.p99", "us"},
      {"serve.request_decide_us.p50", "us"},
      {"serve.batch_size.p50", "count"},
      {"serve.batch_size.p99", "count"},
      {"serve.gemm_batch_share", "share"},
      {"serve.net_us", "us"},
      {"serve.client_late_us.p99", "us"},
      {"serve.publish_us.p50", "us"},
      {"serve.publish_us.p99", "us"},
      {"serve.socket_rate_per_s", "1/s"},
      {"trace.coverage", "share"},
      {"trace.overhead", "share"},
  };
  return names;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void print_rates(const std::string& what, const std::vector<double>& rates) {
  std::printf("# %s per second over %zu repetitions: best %.6g, median %.6g, worst %.6g\n",
              what.c_str(), rates.size(), quantile(rates, 1.0), median(rates),
              quantile(rates, 0.0));
}

double best_rate(const std::string& what, const std::vector<double>& rates) {
  print_rates(what, rates);
  return quantile(rates, 1.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return dosc::check::mix64(seed * 0x9E3779B97F4A7C15ULL + (stream + 1) * 0xD1B54A32D192ED03ULL);
}


std::string expected_path(const Options& options) {
  return options.data_dir + "/expected.json";
}

namespace {
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  }
  return "unknown";
}
}  // namespace

void print_run_metadata(const Options& options) {
  std::printf("# run workload=%s seed=%llu seconds=%g trace=%d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# host hardware_threads=%u cpu=\"%s\"\n", std::thread::hardware_concurrency(),
              cpu_model().c_str());
  std::printf("# isa gemm=%s gemv=%s tanh=%s compute_threads=%zu\n",
              dosc::nn::gemm::isa_name(), dosc::nn::gemv::isa_name(),
              dosc::nn::vecmath::tanh_isa(), dosc::nn::compute_threads());
}

// Each clock reading brackets the span too, so recording the span is
// charged to the layer it describes rather than to the remainder.

bool LayeredEpisode::advance_to_decision() {
  const std::int64_t t0 = now_ns();
  bool pending = false;
  {
    dosc::telemetry::ScopedSpan span("sim", "sim.dispatch");
    pending = inner_->advance_to_decision();
  }
  clock_->dispatch_s += static_cast<double>(now_ns() - t0) * 1e-9;
  return pending;
}

void LayeredEpisode::write_observation(std::span<double> out) {
  const std::int64_t t0 = now_ns();
  {
    dosc::telemetry::ScopedSpan span("core", "core.obs_build");
    inner_->write_observation(out);
  }
  clock_->obs_end_ns = now_ns();
  clock_->obs_s += static_cast<double>(clock_->obs_end_ns - t0) * 1e-9;
  ++clock_->obs_calls;
}

void LayeredEpisode::apply_logits(std::span<const double> logits) {
  const std::int64_t t0 = now_ns();
  if (clock_->obs_end_ns != 0) {
    const double forward_us = static_cast<double>(t0 - clock_->obs_end_ns) * 1e-3;
    clock_->forward_s += forward_us * 1e-6;
    clock_->obs_end_ns = 0;
    dosc::telemetry::Tracer& tracer = dosc::telemetry::Tracer::global();
    tracer.complete("nn", "nn.forward", tracer.now_us() - forward_us, forward_us);
  }
  {
    dosc::telemetry::ScopedSpan span("rl", "rl.sample");
    inner_->apply_logits(logits);
  }
  clock_->sample_s += static_cast<double>(now_ns() - t0) * 1e-9;
}

double print_layer_table(const std::string& workload, double wall,
                         const std::vector<LayerRow>& rows) {
  double covered = 0.0;
  std::printf("# layers %s: self time over %.3f s of traced wall\n", workload.c_str(), wall);
  std::printf("#   %-22s %12s %8s\n", "layer", "self_s", "share");
  for (const LayerRow& row : rows) {
    const double share = wall > 0.0 ? row.seconds / wall : 0.0;
    std::printf("#   %-22s %12.6f %7.2f%%%s\n", row.name.c_str(), row.seconds, 100.0 * share,
                row.attributed ? "" : "  (remainder)");
    if (row.attributed) covered += share;
  }
  std::printf("#   attributed rows cover %.2f%% of wall\n", 100.0 * covered);
  return covered;
}


double print_overhead(const std::vector<Metric>& untraced, const std::vector<Metric>& traced,
                      const std::string& key) {
  std::printf("# tracing overhead (traced vs untraced, same workload and seed):\n");
  for (const Metric& u : untraced) {
    const double t = metric_value(traced, u.name);
    const double change = u.value != 0.0 ? (t - u.value) / u.value : 0.0;
    std::printf("#   %-14s untraced %14.6g  traced %14.6g  %s  %+.2f%%\n", u.name.c_str(),
                u.value, t, u.unit.c_str(), 100.0 * change);
  }
  const double u = metric_value(untraced, key);
  return u != 0.0 ? (metric_value(traced, key) - u) / u : 0.0;
}

std::vector<Metric> end_to_end_metrics(double setup_s, double ok_share, double rate_per_s) {
  return {{"setup_s", "s", setup_s},
          {"peak_rss_mb", "MiB", peak_rss_mb()},
          {"ok_share", "share", ok_share},
          {"rate_per_s", "1/s", rate_per_s}};
}

void set_tracing(bool on) {
  dosc::telemetry::set_enabled(on);
  dosc::telemetry::Tracer::global().set_enabled(on);
}

void emit_per_layer(Result& result, const std::map<std::string, double>& values) {
  std::size_t used = 0;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = values.find(name);
    if (it != values.end()) ++used;
    result.add(name, unit, it != values.end() ? it->second : 0.0);
  }
  if (used != values.size()) throw std::logic_error("per-layer value outside the vocabulary");
}


dosc::core::TrainedPolicy load_fixed_policy(const Options& options) {
  return dosc::core::load_policy(policy_path(options));
}

bool EpisodeRecord::same_as(const EpisodeRecord& o) const {
  const bool counts = label == o.label && seed == o.seed && generated == o.generated &&
                      succeeded == o.succeeded && dropped == o.dropped &&
                      decisions == o.decisions && drops_by_reason == o.drops_by_reason &&
                      std::memcmp(&mean_e2e_delay, &o.mean_e2e_delay, sizeof(double)) == 0;
  const bool events_ok = events == 0 || o.events == 0 || events == o.events;
  const bool digest_ok = digest == 0 || o.digest == 0 || digest == o.digest;
  return counts && events_ok && digest_ok;
}

std::string EpisodeRecord::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu generated=%llu succeeded=%llu dropped=%llu decisions=%llu "
                "delay=%.17g events=%llu digest=%016llx",
                label.c_str(), static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(generated),
                static_cast<unsigned long long>(succeeded),
                static_cast<unsigned long long>(dropped),
                static_cast<unsigned long long>(decisions), mean_e2e_delay,
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(digest));
  return buf;
}

namespace {
std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}
std::uint64_t parse_hex64(const std::string& s) { return std::stoull(s, nullptr, 16); }
}  // namespace

dosc::util::Json EpisodeRecord::to_json() const {
  using dosc::util::Json;
  Json::Array drops;
  for (const std::uint64_t d : drops_by_reason) drops.emplace_back(static_cast<double>(d));
  Json::Object o;
  o["label"] = label;
  // 64-bit values as hex strings: JSON numbers are doubles.
  o["seed"] = hex64(seed);
  o["generated"] = static_cast<double>(generated);
  o["succeeded"] = static_cast<double>(succeeded);
  o["dropped"] = static_cast<double>(dropped);
  o["decisions"] = static_cast<double>(decisions);
  o["drops_by_reason"] = drops;
  o["mean_e2e_delay"] = mean_e2e_delay;
  o["events"] = static_cast<double>(events);
  o["digest"] = hex64(digest);
  return o;
}

EpisodeRecord EpisodeRecord::from_json(const dosc::util::Json& json) {
  EpisodeRecord r;
  r.label = json.at("label").as_string();
  r.seed = parse_hex64(json.at("seed").as_string());
  r.generated = static_cast<std::uint64_t>(json.at("generated").as_int());
  r.succeeded = static_cast<std::uint64_t>(json.at("succeeded").as_int());
  r.dropped = static_cast<std::uint64_t>(json.at("dropped").as_int());
  r.decisions = static_cast<std::uint64_t>(json.at("decisions").as_int());
  for (const dosc::util::Json& d : json.at("drops_by_reason").as_array()) {
    r.drops_by_reason.push_back(static_cast<std::uint64_t>(d.as_int()));
  }
  r.mean_e2e_delay = json.at("mean_e2e_delay").as_number();
  r.events = static_cast<std::uint64_t>(json.at("events").as_int());
  r.digest = parse_hex64(json.at("digest").as_string());
  return r;
}

EpisodeRecord make_record(const std::string& label, std::uint64_t seed,
                          const dosc::sim::SimMetrics& metrics) {
  EpisodeRecord r;
  r.label = label;
  r.seed = seed;
  r.generated = metrics.generated;
  r.succeeded = metrics.succeeded;
  r.dropped = metrics.dropped;
  r.decisions = metrics.decisions;
  r.drops_by_reason.assign(metrics.drops_by_reason.begin(), metrics.drops_by_reason.end());
  r.mean_e2e_delay = metrics.e2e_delay.mean();
  return r;
}

void check_records(const std::string& what, const std::vector<EpisodeRecord>& actual,
                   const dosc::util::Json& expected, Result& result) {
  const dosc::util::Json::Array& list = expected.as_array();
  if (list.size() != actual.size()) {
    result.fail(what + ": " + std::to_string(actual.size()) + " episodes, expected " +
                std::to_string(list.size()));
    return;
  }
  for (std::size_t i = 0; i < list.size(); ++i) {
    const EpisodeRecord want = EpisodeRecord::from_json(list[i]);
    if (want.digest == 0 || !actual[i].same_as(want) || actual[i].digest != want.digest) {
      result.fail(what + " episode " + std::to_string(i) + ": got " + actual[i].describe() +
                  ", recorded " + want.describe());
    }
  }
}

}  // namespace perfbench
