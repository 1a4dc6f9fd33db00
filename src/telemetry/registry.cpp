#include "telemetry/registry.hpp"

namespace dosc::telemetry {

namespace {
std::atomic<bool> g_enabled{false};
}  // namespace

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

void MetricsRegistry::observe(std::string_view name, double value,
                              const HistogramConfig& config) {
  LockedHistogram* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(std::string(name), std::make_unique<LockedHistogram>(config))
               .first;
    }
    entry = it->second.get();
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  entry->hist.add(value);
}

void MetricsRegistry::merge_histogram(std::string_view name, const Histogram& local) {
  LockedHistogram* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_
               .emplace(std::string(name), std::make_unique<LockedHistogram>(local.config()))
               .first;
    }
    entry = it->second.get();
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  entry->hist.merge(local);
}

Histogram MetricsRegistry::histogram(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return Histogram(latency_histogram_config());
  std::lock_guard<std::mutex> hist_lock(it->second->mutex);
  return it->second->hist;
}

util::Json MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  util::Json::Object counters;
  for (const auto& [name, counter] : counters_) {
    counters[name] = static_cast<double>(counter->value());
  }
  util::Json::Object gauges;
  for (const auto& [name, gauge] : gauges_) gauges[name] = gauge->value();
  util::Json::Object histograms;
  for (const auto& [name, locked] : histograms_) {
    std::lock_guard<std::mutex> hist_lock(locked->mutex);
    const Histogram& h = locked->hist;
    util::Json::Object entry = h.to_json().as_object();
    entry["mean"] = h.mean();
    entry["p50"] = h.percentile(50.0);
    entry["p90"] = h.percentile(90.0);
    entry["p99"] = h.percentile(99.0);
    entry["p999"] = h.percentile(99.9);
    histograms[name] = util::Json(std::move(entry));
  }
  util::Json::Object out;
  out["counters"] = util::Json(std::move(counters));
  out["gauges"] = util::Json(std::move(gauges));
  out["histograms"] = util::Json(std::move(histograms));
  return util::Json(std::move(out));
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : gauges_) entry.second->set(0.0);
  for (auto& entry : histograms_) {
    std::lock_guard<std::mutex> hist_lock(entry.second->mutex);
    entry.second->hist.reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace dosc::telemetry
