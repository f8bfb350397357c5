// sack_perfbench: runs one benchmark workload and prints, as the last line
// of standard output, {"correct", "attempted", "failed", "metrics"}.
//
//   sack_perfbench --workload <lmbench_stack|ivi_drive|fleet_rollout>
//                  --seed <n> --seconds <s> --trace <0|1>
//   sack_perfbench --selftest
//
// --trace 0 reports the end-to-end metrics; --trace 1 installs the layer
// probes and reports the per-layer metrics the workload measures (run.py
// checks the names and units against BENCHMARK.json). The line before the
// result holds the workload-specific detail (Table II rows, situation and
// fleet latencies, tails) and the build stamp.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "util/log.h"
#include "workloads.h"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

int usage() {
  std::fprintf(stderr,
               "usage: sack_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "       sack_perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  sack::Logger::instance().set_level(sack::LogLevel::off);
  std::string workload;
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      return usage();
    }
  }
  if (selftest) return run_selftest(options);
  if (options.seconds <= 0) return usage();

  RunResult result;
  if (workload == "lmbench_stack")
    result = run_lmbench_stack(options);
  else if (workload == "ivi_drive")
    result = run_ivi_drive(options);
  else if (workload == "fleet_rollout")
    result = run_fleet_rollout(options);
  else
    return usage();

  const MetricMap& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  std::string errors = "[";
  for (const auto& e : result.errors)
    errors += (errors.size() > 1 ? ", \"" : "\"") + json_escape(e) + "\"";
  errors += "]";
  std::printf("{\"build\": {\"type\": \"%s\", \"compiler\": \"%s\"}, "
              "\"report\": %s, \"errors\": %s}\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              metrics_json(result.report).c_str(), errors.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(metrics).c_str());
  return result.correct ? 0 : 1;
}
