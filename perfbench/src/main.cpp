// perfbench: one benchmark for training, evaluation, simulation and serving.
//
//   perfbench --workload <train|eval|sim|serve> --seed N --seconds S
//             --trace <0|1> --data-dir DIR
//   perfbench --record --data-dir DIR          rewrite DIR/expected.json
//   perfbench --make-policy PATH               train the fixed policy
//
// The last line of standard output is the result object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// A failed output check prints the object with "correct": false and exits
// 1, as does anything that aborts the run.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Result& result) {
  for (const std::string& e : result.errors) std::printf("# CHECK FAILED: %s\n", e.c_str());
  std::string out = "{\"correct\": ";
  out += result.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train|eval|sim|serve> --seed N "
               "--seconds S --trace <0|1> --data-dir DIR\n"
               "       perfbench --record --data-dir DIR\n"
               "       perfbench --make-policy PATH\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool record = false;
  std::string policy_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--record") {
      record = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--data-dir" && has_value) {
      options.data_dir = argv[++i];
    } else if (arg == "--make-policy" && has_value) {
      policy_out = argv[++i];
    } else {
      return usage();
    }
  }
  try {
    if (!policy_out.empty()) {
      perfbench::make_policy(policy_out);
      return 0;
    }
    if (record) {
      dosc::util::Json::Object doc;
      doc["eval"] = perfbench::record_eval_expected(options);
      doc["sim"] = perfbench::record_sim_expected(options);
      dosc::util::Json(doc).save_file(perfbench::expected_path(options));
      std::printf("wrote %s\n", perfbench::expected_path(options).c_str());
      return 0;
    }
    if (options.seconds <= 0.0) return usage();
    perfbench::print_run_metadata(options);
    Result result;
    if (options.workload == "train") {
      result = perfbench::run_train(options);
    } else if (options.workload == "eval") {
      result = perfbench::run_eval(options);
    } else if (options.workload == "sim") {
      result = perfbench::run_sim(options);
    } else if (options.workload == "serve") {
      result = perfbench::run_serve(options);
    } else {
      return usage();
    }
    print_result(result);
    return result.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
