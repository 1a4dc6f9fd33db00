// The benchmark's workloads. Each runs for Options::seconds of measured
// work, checks its outputs, and returns end-to-end metrics (untraced) or
// per-layer metrics (traced).
#pragma once

#include <string>

#include "common.hpp"
#include "util/json.hpp"

namespace perfbench {

Result run_train(const Options& options);
Result run_eval(const Options& options);
Result run_sim(const Options& options);
Result run_serve(const Options& options);

/// Per-episode results of the pinned eval / sim episode sets, as written to
/// the expected file by `perfbench --record`.
dosc::util::Json record_eval_expected(const Options& options);
dosc::util::Json record_sim_expected(const Options& options);

/// Trains the fixed policy with the repository's synchronous trainer: the
/// run that produced perfbench/data/policy_abilene_2x256.json.
void make_policy(const std::string& path);

}  // namespace perfbench
