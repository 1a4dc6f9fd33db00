// Serving benchmark for the dosc_serve daemon — loopback, open loop.
//
// Three sections, all landing in BENCH_serve.json ("dosc.bench.v1"):
//
//  1. A/B decision consistency: the same request mix is served twice by two
//     in-process servers — one batching into the GEMM path, one pinned to
//     the batch-1 GEMV fast path (force_gemv) — and the per-request actions
//     are compared. The adaptive batcher is a latency optimisation, never a
//     behaviour change, so every matched pair must agree.
//  2. Open-loop Poisson rate sweep: for each offered rate, an untrained
//     serving policy (the machinery under test, not the 2x256 paper net)
//     is hit by the loadgen on loopback; we report achieved rate, loss,
//     client-side e2e p50/p90/p99 (cookie round-trip) and the server's own
//     batch-size and per-request decide histograms.
//  3. Hot-swap under load: the highest sweep rate again, once steady (no
//     publisher) and once with a publisher thread cycling through a few
//     distinct untrained snapshots, built before the load starts, every
//     5 ms. Zero lost replies and >1 distinct policy version in the
//     responses prove swaps are invisible to clients; the swap run's e2e
//     p99 over the steady run's (same requests, same offered rate) is the
//     tail cost of swapping, reported as swap_p99_over_steady_p99.
//
// Client and server share the machine (often a single core in CI), so the
// e2e numbers include scheduling contention — that is the deployment story
// for a sidecar daemon, not a flaw in the measurement.
//
// DOSC_BENCH_SMOKE=1 (CI) trims rates and request counts but exercises
// every section.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/daemon.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"

using namespace dosc;

namespace {

bool smoke() {
  static const bool on = [] {
    const char* env = std::getenv("DOSC_BENCH_SMOKE");
    return env != nullptr && std::string_view(env) != "0";
  }();
  return on;
}

std::vector<double> sweep_rates() {
  if (smoke()) return {20000.0};
  return {20000.0, 60000.0, 110000.0};
}

// Requests per sweep run: ~4 s of offered load at full scale.
std::size_t sweep_count(double rate) {
  const double seconds = smoke() ? 0.5 : 4.0;
  return static_cast<std::size_t>(rate * seconds);
}

constexpr std::size_t kServingHidden = 32;  // serving-machinery benchmark net

util::Json histogram_json(const telemetry::Histogram& hist) {
  return util::Json(util::Json::Object{
      {"p50", util::Json(hist.percentile(50.0))},
      {"p90", util::Json(hist.percentile(90.0))},
      {"p99", util::Json(hist.percentile(99.0))},
      {"count", util::Json(static_cast<std::size_t>(hist.count()))},
  });
}

serve::LoadReport serve_run(const sim::Scenario& scenario,
                            const std::vector<serve::wire::Request>& requests,
                            serve::ServerConfig config, serve::LoadConfig load,
                            serve::ServerStats* stats_out,
                            telemetry::Histogram* batch_hist_out = nullptr,
                            telemetry::Histogram* decide_hist_out = nullptr) {
  const core::TrainedPolicy policy = serve::make_untrained_policy(scenario, kServingHidden, 7);
  serve::UdpServer server(scenario, policy, std::move(config));
  server.start();
  load.port = server.port();
  const serve::LoadReport report = serve::run_load(requests, load);
  server.stop();  // counters and merged histograms are exact after stop()
  if (stats_out != nullptr) *stats_out = server.stats();
  if (batch_hist_out != nullptr) *batch_hist_out = server.batch_size_histogram();
  if (decide_hist_out != nullptr) *decide_hist_out = server.request_decide_us_histogram();
  return report;
}

}  // namespace

int main() {
  std::printf("bench_serve (%s horizon): loopback serving, open-loop Poisson load\n",
              smoke() ? "smoke" : "full");
  const sim::Scenario scenario = sim::make_base_scenario();
  util::Json::Array entries;
  bool ok = true;

  // ---- Section 1: GEMM-batched vs forced-GEMV decision consistency ------
  {
    const std::size_t count = smoke() ? 4000 : 20000;
    const std::vector<serve::wire::Request> requests =
        serve::make_request_mix(scenario, count, /*seed=*/11);
    serve::LoadConfig load;
    load.rate = 40000.0;  // high enough that the batched server coalesces
    load.seed = 11;
    load.record_actions = true;
    load.drain_timeout_ms = 2000;

    serve::ServerStats batched_stats, gemv_stats;
    serve::ServerConfig batched_config;
    const serve::LoadReport batched =
        serve_run(scenario, requests, batched_config, load, &batched_stats);
    serve::ServerConfig gemv_config;
    gemv_config.force_gemv = true;
    const serve::LoadReport gemv = serve_run(scenario, requests, gemv_config, load, &gemv_stats);

    std::uint64_t compared = 0, mismatched = 0;
    for (std::size_t id = 0; id < count; ++id) {
      if (batched.actions[id] < 0 || gemv.actions[id] < 0) continue;  // reply lost in transit
      ++compared;
      if (batched.actions[id] != gemv.actions[id]) ++mismatched;
    }
    const bool consistent = mismatched == 0 && compared > 0;
    ok = ok && consistent;
    std::printf("A/B gemm vs gemv: %llu/%zu pairs compared, %llu mismatched (%s); "
                "batched server: %llu gemm batches, %llu gemv decides\n",
                static_cast<unsigned long long>(compared), count,
                static_cast<unsigned long long>(mismatched), consistent ? "MATCH" : "DIFFER",
                static_cast<unsigned long long>(batched_stats.gemm_batches),
                static_cast<unsigned long long>(batched_stats.gemv_decides));
    entries.push_back(util::Json(util::Json::Object{
        {"kind", util::Json(std::string("ab_gemm_vs_gemv"))},
        {"requests", util::Json(count)},
        {"compared", util::Json(static_cast<std::size_t>(compared))},
        {"mismatched", util::Json(static_cast<std::size_t>(mismatched))},
        {"consistent", util::Json(consistent)},
        {"batched_gemm_batches", util::Json(static_cast<std::size_t>(batched_stats.gemm_batches))},
        {"batched_gemv_decides", util::Json(static_cast<std::size_t>(batched_stats.gemv_decides))},
        {"forced_gemv_decides", util::Json(static_cast<std::size_t>(gemv_stats.gemv_decides))},
    }));
  }

  // ---- Section 2: open-loop Poisson rate sweep ---------------------------
  std::printf("%10s %12s %10s %8s %8s %8s %8s %10s %12s\n", "rate_rps", "achieved",
              "loss", "p50_us", "p90_us", "p99_us", "batch_p99", "req_dec_us", "proto_errs");
  for (const double rate : sweep_rates()) {
    const std::size_t count = sweep_count(rate);
    const std::vector<serve::wire::Request> requests =
        serve::make_request_mix(scenario, count, /*seed=*/21);
    serve::LoadConfig load;
    load.rate = rate;
    load.seed = 21;
    load.drain_timeout_ms = 2000;

    serve::ServerStats stats;
    telemetry::Histogram batch_hist, decide_hist;
    const serve::LoadReport report = serve_run(scenario, requests, serve::ServerConfig{}, load,
                                               &stats, &batch_hist, &decide_hist);
    const double loss =
        report.sent > 0 ? 1.0 - static_cast<double>(report.received) / report.sent : 1.0;
    ok = ok && stats.protocol_errors == 0 && report.received > 0;
    std::printf("%10.0f %12.0f %9.4f%% %8.0f %8.0f %8.0f %8.0f %10.2f %12llu\n", rate,
                report.achieved_rate, 100.0 * loss, report.e2e_us.percentile(50.0),
                report.e2e_us.percentile(90.0), report.e2e_us.percentile(99.0),
                batch_hist.percentile(99.0), decide_hist.percentile(50.0),
                static_cast<unsigned long long>(stats.protocol_errors));
    entries.push_back(util::Json(util::Json::Object{
        {"kind", util::Json(std::string("rate_sweep"))},
        {"offered_rate", util::Json(rate)},
        {"achieved_rate", util::Json(report.achieved_rate)},
        {"requests", util::Json(count)},
        {"sent", util::Json(static_cast<std::size_t>(report.sent))},
        {"received", util::Json(static_cast<std::size_t>(report.received))},
        {"loss", util::Json(loss)},
        {"e2e_us", histogram_json(report.e2e_us)},
        {"batch_size", histogram_json(batch_hist)},
        {"request_decide_us", histogram_json(decide_hist)},
        {"gemm_batches", util::Json(static_cast<std::size_t>(stats.gemm_batches))},
        {"gemv_decides", util::Json(static_cast<std::size_t>(stats.gemv_decides))},
        {"protocol_errors", util::Json(static_cast<std::size_t>(stats.protocol_errors))},
    }));
  }

  // ---- Section 3: hot-swap under load ------------------------------------
  {
    const double rate = sweep_rates().back();
    const std::size_t count = sweep_count(rate);
    const std::vector<serve::wire::Request> requests =
        serve::make_request_mix(scenario, count, /*seed=*/31);
    serve::LoadConfig load;
    load.rate = rate;
    load.seed = 31;
    load.drain_timeout_ms = 2000;
    const serve::LoadReport steady =
        serve_run(scenario, requests, serve::ServerConfig{}, load, nullptr);

    // Distinct snapshots built up front, so the swapper only publishes.
    std::vector<core::TrainedPolicy> snapshots;
    for (std::uint64_t seed = 1000; seed < 1004; ++seed) {
      snapshots.push_back(serve::make_untrained_policy(scenario, kServingHidden, seed));
    }
    const core::TrainedPolicy policy =
        serve::make_untrained_policy(scenario, kServingHidden, 7);
    serve::UdpServer server(scenario, policy, serve::ServerConfig{});
    server.start();

    std::atomic<bool> stop_swapping{false};
    std::thread swapper([&] {
      for (std::size_t swaps = 0; !stop_swapping.load(std::memory_order_acquire); ++swaps) {
        server.publish(snapshots[swaps % snapshots.size()]);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    load.port = server.port();
    const serve::LoadReport report = serve::run_load(requests, load);

    stop_swapping.store(true, std::memory_order_release);
    swapper.join();
    server.stop();
    const serve::ServerStats stats = server.stats();

    const double loss =
        report.sent > 0 ? 1.0 - static_cast<double>(report.received) / report.sent : 1.0;
    const bool swap_invisible = report.policy_versions.size() > 1 && report.server_errors == 0;
    ok = ok && swap_invisible && stats.protocol_errors == 0;
    const double steady_p99 = steady.e2e_us.percentile(99.0);
    const double swap_p99 = report.e2e_us.percentile(99.0);
    const double p99_ratio = steady_p99 > 0.0 ? swap_p99 / steady_p99 : 0.0;
    std::printf("hot-swap @ %.0f rps: %llu swaps, %zu versions seen by clients, "
                "loss %.4f%%, e2e p99 %.0f us (%s); steady e2e p99 %.0f us, "
                "swap/steady p99 %.2fx\n", rate,
                static_cast<unsigned long long>(stats.hot_swaps), report.policy_versions.size(),
                100.0 * loss, swap_p99, swap_invisible ? "INVISIBLE" : "VISIBLE", steady_p99,
                p99_ratio);
    entries.push_back(util::Json(util::Json::Object{
        {"kind", util::Json(std::string("hot_swap_under_load"))},
        {"offered_rate", util::Json(rate)},
        {"requests", util::Json(count)},
        {"sent", util::Json(static_cast<std::size_t>(report.sent))},
        {"received", util::Json(static_cast<std::size_t>(report.received))},
        {"loss", util::Json(loss)},
        {"hot_swaps", util::Json(static_cast<std::size_t>(stats.hot_swaps))},
        {"versions_seen", util::Json(report.policy_versions.size())},
        {"e2e_us", histogram_json(report.e2e_us)},
        {"steady_e2e_us", histogram_json(steady.e2e_us)},
        {"swap_p99_over_steady_p99", util::Json(p99_ratio)},
        {"swap_invisible", util::Json(swap_invisible)},
        {"protocol_errors", util::Json(static_cast<std::size_t>(stats.protocol_errors))},
    }));
  }

  const util::Json doc(util::Json::Object{
      {"schema", util::Json("dosc.bench.v1")},
      {"benchmark", util::Json("serve")},
      {"smoke", util::Json(smoke())},
      {"results", util::Json(std::move(entries))},
  });
  const std::string path = "BENCH_serve.json";
  doc.save_file(path, 2);
  std::printf("wrote %s\n", path.c_str());
  return ok ? 0 : 1;
}
