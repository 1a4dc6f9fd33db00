// sim: the event engine alone. The shortest-path and GCASP baselines run
// through Simulator::run on two corpus entries — a 208-node fat tree under
// a correlated failure storm and a 500-node WAN under flash crowds — so
// calendar queue, lazy cancellation, failure handling and burst arrivals
// are ~100% of wall. No neural network runs here.
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

#include "baselines/gcasp.hpp"
#include "baselines/shortest_path.hpp"
#include "check/auditor.hpp"
#include "check/corpus.hpp"
#include "check/digest.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dosc::sim::Scenario;
using dosc::sim::Simulator;

constexpr std::array<const char*, 2> kEntries = {"ft_k8_storm", "wan_500_flash"};
constexpr std::array<const char*, 2> kAlgos = {"sp", "gcasp"};
/// Episode horizon (ms) of the timed episodes and of the pinned ones.
constexpr double kHorizonMs = 2000.0;
constexpr double kPinnedHorizonMs = 1000.0;
/// Seeds per (entry, algorithm) pair in one cycle of timed episodes.
constexpr std::size_t kSeedsPerPair = 2;

std::unique_ptr<dosc::sim::Coordinator> make_coordinator(std::string_view algo) {
  if (algo == "sp") return std::make_unique<dosc::baselines::ShortestPathCoordinator>();
  return std::make_unique<dosc::baselines::GcaspCoordinator>();
}

struct Unit {
  std::size_t entry = 0;
  const char* algo = "";
  std::uint64_t seed = 0;
};

struct UnitRun {
  EpisodeRecord record;
  double build_s = 0.0;  ///< Simulator + coordinator construction
  double run_s = 0.0;    ///< Simulator::run
  std::uint64_t skipped = 0;
  std::size_t queue_peak = 0;
};

UnitRun run_unit(const Scenario& scenario, const Unit& unit, dosc::sim::AuditHook* hook,
                 dosc::sim::FlowObserver* observer) {
  UnitRun out;
  const std::int64_t t0 = now_ns();
  Simulator simulator(scenario, unit.seed);
  const std::unique_ptr<dosc::sim::Coordinator> coordinator = make_coordinator(unit.algo);
  if (hook != nullptr) simulator.set_audit_hook(hook);
  const std::int64_t t1 = now_ns();
  const dosc::sim::SimMetrics metrics = simulator.run(*coordinator, observer);
  const std::int64_t t2 = now_ns();
  out.build_s = static_cast<double>(t1 - t0) * 1e-9;
  out.run_s = static_cast<double>(t2 - t1) * 1e-9;
  out.record = make_record(std::string(kEntries[unit.entry]) + "/" + unit.algo, unit.seed,
                           metrics);
  for (const std::uint64_t n : simulator.events_by_kind()) out.record.events += n;
  const Simulator::EngineStats stats = simulator.engine_stats();
  out.skipped = stats.events_skipped;
  out.queue_peak = stats.peak_event_heap;
  return out;
}

struct Phase {
  double wall_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t skipped = 0;
  std::size_t queue_peak = 0;
  std::uint64_t episodes = 0;
  std::vector<double> cycle_rates;  ///< events per second of each full cycle
};

/// Cycles through `units` for whole cycles until `seconds` have passed.
/// The first cycle's outcomes land in `first` (when empty); every later
/// repeat of a unit must reproduce them exactly.
Phase run_phase(const std::vector<Scenario>& scenarios, const std::vector<Unit>& units,
                double seconds, std::vector<EpisodeRecord>& first, Result& result) {
  Phase phase;
  const double start = now_s();
  double cycle_s = 0.0;
  std::uint64_t cycle_events = 0;
  for (std::size_t i = 0; i % units.size() != 0 || i == 0 || now_s() - start < seconds; ++i) {
    const Unit& unit = units[i % units.size()];
    const UnitRun run = run_unit(scenarios[unit.entry], unit, nullptr, nullptr);
    ++result.attempted;
    if (first.size() < units.size()) {
      first.push_back(run.record);
    } else if (!run.record.same_as(first[i % units.size()])) {
      ++result.failed;
      result.fail("sim repeat differs: " + run.record.describe() + " vs " +
                  first[i % units.size()].describe());
    }
    phase.build_s += run.build_s;
    phase.run_s += run.run_s;
    phase.events += run.record.events;
    phase.skipped += run.skipped;
    phase.queue_peak = std::max(phase.queue_peak, run.queue_peak);
    ++phase.episodes;
    cycle_s += run.build_s + run.run_s;
    cycle_events += run.record.events;
    if ((i + 1) % units.size() == 0) {
      phase.cycle_rates.push_back(static_cast<double>(cycle_events) / cycle_s);
      cycle_s = 0.0;
      cycle_events = 0;
    }
  }
  phase.wall_s = now_s() - start;
  return phase;
}

std::vector<Metric> phase_metrics(double setup_s, const Phase& phase, const Result& result) {
  const double ok = result.attempted > 0
                        ? 1.0 - static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted)
                        : 0.0;
  return end_to_end_metrics(setup_s, ok, best_rate("sim events", phase.cycle_rates));
}

/// Runs `scenario` with an event digest; with `audit`, the invariant
/// auditor watches the same episode.
EpisodeRecord digest_episode(const Scenario& scenario, const Unit& unit, bool audit,
                             Result& result) {
  dosc::check::EventDigest digest;
  dosc::check::InvariantAuditor auditor;
  dosc::check::HookChain chain{&digest, &auditor};
  UnitRun run = audit ? run_unit(scenario, unit, &chain, &auditor)
                      : run_unit(scenario, unit, &digest, nullptr);
  run.record.digest = digest.digest();
  if (audit && !auditor.ok()) {
    ++result.failed;
    result.fail("auditor: " + run.record.describe() + ": " +
                (auditor.violations().empty() ? std::string("violation")
                                              : auditor.violations().front()));
  }
  return run.record;
}

std::vector<Unit> pinned_units() {
  std::vector<Unit> units;
  for (std::size_t e = 0; e < kEntries.size(); ++e) {
    for (const char* algo : kAlgos) units.push_back({e, algo, units.size() + 1});
  }
  return units;
}

std::vector<Scenario> load_entries(double horizon_ms) {
  std::vector<Scenario> scenarios;
  for (const char* name : kEntries) {
    scenarios.push_back(dosc::check::CorpusGenerator::make(name).with_end_time(horizon_ms));
  }
  return scenarios;
}

}  // namespace

dosc::util::Json record_sim_expected(const Options&) {
  const std::vector<Scenario> scenarios = load_entries(kPinnedHorizonMs);
  Result scratch;
  dosc::util::Json::Array list;
  for (const Unit& unit : pinned_units()) {
    list.push_back(digest_episode(scenarios[unit.entry], unit, false, scratch).to_json());
  }
  dosc::util::Json::Object doc;
  doc["horizon_ms"] = kPinnedHorizonMs;
  doc["episodes"] = list;
  return doc;
}

Result run_sim(const Options& options) {
  Result result;
  std::vector<Scenario> scenarios;
  const double setup_s = time_setup([&] { scenarios = load_entries(kHorizonMs); });

  std::vector<Unit> units;
  for (std::size_t e = 0; e < kEntries.size(); ++e) {
    for (const char* algo : kAlgos) {
      for (std::size_t k = 0; k < kSeedsPerPair; ++k) {
        units.push_back({e, algo, derive_seed(options.seed, units.size())});
      }
    }
  }

  std::vector<EpisodeRecord> first;
  const double measured_s = options.trace ? options.seconds / 2 : options.seconds;
  const Phase untraced = run_phase(scenarios, units, measured_s, first, result);
  std::printf("# sim: %llu episodes, %llu events in %.3f s\n",
              static_cast<unsigned long long>(untraced.episodes),
              static_cast<unsigned long long>(untraced.events), untraced.wall_s);

  // Output checks, untimed: every first-cycle episode again with the event
  // digest (must reproduce its outcome) — the first seed of each pair also
  // under the invariant auditor, which costs ~200x an episode on the fat
  // tree — and the pinned episodes against their recorded outcomes and
  // digests.
  for (std::size_t i = 0; i < units.size(); ++i) {
    const bool audit = i % kSeedsPerPair == 0;
    const EpisodeRecord checked =
        digest_episode(scenarios[units[i].entry], units[i], audit, result);
    ++result.attempted;
    if (!checked.same_as(first[i])) {
      ++result.failed;
      result.fail("rerun differs: " + checked.describe() + " vs " + first[i].describe());
    }
  }
  const dosc::util::Json expected = dosc::util::Json::load_file(expected_path(options)).at("sim");
  std::vector<Scenario> pinned_scenarios;
  for (const Scenario& scenario : scenarios) {
    pinned_scenarios.push_back(scenario.with_end_time(expected.at("horizon_ms").as_number()));
  }
  std::vector<EpisodeRecord> pinned;
  for (const Unit& unit : pinned_units()) {
    pinned.push_back(digest_episode(pinned_scenarios[unit.entry], unit, false, result));
    ++result.attempted;
  }
  const std::size_t errors_before = result.errors.size();
  check_records("sim pinned", pinned, expected.at("episodes"), result);
  result.failed += result.errors.size() - errors_before;

  const std::vector<Metric> e2e = phase_metrics(setup_s, untraced, result);
  if (!options.trace) {
    result.metrics = e2e;
    return result;
  }

  set_tracing(true);
  const Phase traced = run_phase(scenarios, units, measured_s, first, result);
  set_tracing(false);
  const double overhead = -print_overhead(e2e, phase_metrics(setup_s, traced, result),
                                          "rate_per_s");
  const double coverage = print_layer_table(
      "sim", traced.wall_s,
      {{"sim.build", traced.build_s},
       {"sim.dispatch", traced.run_s},
       {"unattributed", traced.wall_s - traced.build_s - traced.run_s, false}});
  emit_per_layer(result,
                 {{"sim.dispatch_s", traced.run_s},
                  {"sim.events", static_cast<double>(traced.events)},
                  {"sim.ns_per_event", traced.run_s * 1e9 / static_cast<double>(traced.events)},
                  {"sim.stale_ratio", static_cast<double>(traced.skipped) /
                                          static_cast<double>(traced.events + traced.skipped)},
                  {"sim.queue_peak", static_cast<double>(traced.queue_peak)},
                  {"trace.coverage", coverage},
                  {"trace.overhead", overhead}});
  return result;
}

}  // namespace perfbench
