// The benchmark's workloads. Each is a closed loop from one process over
// inputs generated from the seed; each checks every output it times.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"
#include "probes.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  // Per-layer run: probes installed, per_layer metrics filled.
  bool trace = false;
};

RunResult run_lmbench_stack(const RunOptions& options);
RunResult run_ivi_drive(const RunOptions& options);
RunResult run_fleet_rollout(const RunOptions& options);

// Harness self-test on lmbench_stack: one layer is slowed by a fixed
// busy-wait; returns 0 when only that layer's metric and its mapped
// end-to-end metrics move, by about the delay.
int run_selftest(const RunOptions& options);

}  // namespace perfbench
