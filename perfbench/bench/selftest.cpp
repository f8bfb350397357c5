// Harness self-test: proves the benchmark attributes a known cost to the
// right layer and to the right end-to-end rows.
//
// Decorated lmbench stacks run in alternating slices: stack A as is, and
// one stack per case whose SACK file_open hook spins for a fixed delay on
// some of its calls (every call, or every 4th call with 4x the delay, so
// that a cost paid by a share of the calls is seen too). Both cases add
// the same mean cost per call. Expected, per case:
//   * sack.hook_ns.file_open rises by about the mean added cost;
//   * each Table II row rises by that cost x (SACK file_open calls per op
//     of that row), counted on a probe stack: open_close and create_delete
//     move, stat, fork, exec, ctxsw and pipe stay within the noise
//     tolerance;
//   * the gated latency_us rises by the rows' rises, and ops_per_s falls;
//   * no row gets faster by more than the tolerance: added work that reads
//     as a speed-up is a measurement error, not a pass.
#include <cstdio>
#include <string>
#include <vector>

#include "lmbench_stack.h"

namespace perfbench {

namespace {

struct Case {
  const char* name;
  std::uint64_t delay_ns;
  std::uint64_t every;
  double mean_ns() const {
    return static_cast<double>(delay_ns) / static_cast<double>(every);
  }
};
constexpr Case kCases[] = {{"every call", 2000, 1},
                           {"every 4th call", 8000, 4}};
constexpr double kSliceSeconds = 0.1;
constexpr double kSeconds = 6.0;
// Unmapped rows may move by this share of their own latency.
constexpr double kTolerance = 0.15;

// SACK file_open calls per op of each row, on an undelayed stack.
bool count_calls(const LmbenchInputs& in, double (&calls_per_op)[kRowCount]) {
  for (int r = 0; r < kRowCount; ++r) {
    LmbenchInputs one = in;
    one.order.fill(r);
    std::string error;
    auto probe = LmbenchStack::build(one, true, &error);
    if (!probe) {
      std::printf("selftest: probe set-up failed: %s\n", error.c_str());
      return false;
    }
    probe->timed("sack")->reset_stats();  // drop the set-up's calls
    RowTotals t;
    RunResult checks;
    probe->measure(0.02, t, checks);
    calls_per_op[r] =
        static_cast<double>(probe->timed("sack")->stat(Hook::file_open).calls) /
        static_cast<double>(t.rows[static_cast<std::size_t>(r)].count());
  }
  return true;
}

// Compares one delayed stack's figures with the undelayed stack's.
bool judge(const Case& c, const double (&calls_per_op)[kRowCount],
           const LmbenchStack& a, const RowTotals& ta, const LmbenchStack& b,
           const RowTotals& tb) {
  bool pass = true;
  std::printf("\ncase: %llu ns on %s (mean %.0f ns per call)\n",
              static_cast<unsigned long long>(c.delay_ns), c.name,
              c.mean_ns());
  std::printf("%-24s %10s %10s %10s %10s  %s\n", "metric", "A", "B", "delta",
              "expected", "verdict");
  const double hook_a = a.timed("sack")->stat(Hook::file_open).mean_ns();
  const double hook_b = b.timed("sack")->stat(Hook::file_open).mean_ns();
  const double hook_delta = hook_b - hook_a;
  const bool hook_ok =
      hook_delta > 0.7 * c.mean_ns() && hook_delta < 1.5 * c.mean_ns();
  pass = pass && hook_ok;
  std::printf("%-24s %10.0f %10.0f %10.0f %10.0f  %s\n",
              "sack.hook_ns.file_open", hook_a, hook_b, hook_delta,
              c.mean_ns(), hook_ok ? "ok" : "FAIL");

  std::vector<double> expected_b;
  for (int r = 0; r < kRowCount; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double la = ta.rows[i].mean();
    const double lb = tb.rows[i].mean();
    const double delta = lb - la;
    const double expected = calls_per_op[r] * c.mean_ns();
    expected_b.push_back(la + expected);
    const double slack = kTolerance * la;
    const char* verdict = "ok";
    if (delta < -slack) {
      verdict = "MEASUREMENT ERROR (added work read as a speed-up)";
    } else if (expected > 0 &&
               (delta < 0.5 * expected || delta > 2.0 * expected + slack)) {
      verdict = "FAIL (mapped row did not move by the delay)";
    } else if (expected == 0 && delta > slack) {
      verdict = "FAIL (unmapped row moved)";
    }
    if (std::string(verdict) != "ok") pass = false;
    std::printf("%-24s %10.0f %10.0f %10.0f %10.0f  %s\n",
                (std::string(kRowNames[r]) + "_ns").c_str(), la, lb, delta,
                expected, verdict);
  }

  // The gated figures.
  const double lat_a = ta.latency_ns();
  const double lat_b = tb.latency_ns();
  const double lat_expected = geomean(expected_b) - lat_a;
  const bool lat_ok = lat_b - lat_a > 0.5 * lat_expected &&
                      lat_b - lat_a < 2.0 * lat_expected + kTolerance * lat_a;
  pass = pass && lat_ok;
  std::printf("%-24s %10.0f %10.0f %10.0f %10.0f  %s\n", "latency_ns", lat_a,
              lat_b, lat_b - lat_a, lat_expected,
              lat_ok ? "ok" : "FAIL (gated latency did not move)");
  const double ops_a = ta.ops_per_s();
  const double ops_b = tb.ops_per_s();
  const bool ops_ok = ops_b < ops_a;
  pass = pass && ops_ok;
  std::printf("%-24s %10.0f %10.0f %10.0f %10s  %s\n", "ops_per_s", ops_a,
              ops_b, ops_b - ops_a, "< 0",
              ops_ok ? "ok" : "MEASUREMENT ERROR (added work read as a "
                              "speed-up)");
  return pass;
}

}  // namespace

int run_selftest(const RunOptions& options) {
  const LmbenchInputs in = LmbenchInputs::generate(options.seed);
  double calls_per_op[kRowCount] = {};
  if (!count_calls(in, calls_per_op)) return 1;

  std::string error;
  std::vector<std::unique_ptr<LmbenchStack>> stacks;  // A, then one per case
  for (std::size_t i = 0; i <= std::size(kCases); ++i) {
    stacks.push_back(LmbenchStack::build(in, true, &error));
    if (!stacks.back()) {
      std::printf("selftest: set-up failed: %s\n", error.c_str());
      return 1;
    }
  }
  for (auto& stack : stacks) stack->timed("sack")->reset_stats();
  for (std::size_t i = 0; i < std::size(kCases); ++i)
    stacks[i + 1]->timed("sack")->set_delay(
        Hook::file_open, kCases[i].delay_ns, kCases[i].every);

  std::vector<RowTotals> totals(stacks.size());
  RunResult checks;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(kSeconds * 1e9);
  while (now_ns() < deadline)
    for (std::size_t i = 0; i < stacks.size(); ++i)
      stacks[i]->measure(kSliceSeconds, totals[i], checks);
  bool pass = checks.correct;
  if (!checks.correct)
    std::printf("selftest: output check failed: %s\n",
                checks.errors.front().c_str());
  for (std::size_t i = 0; i < std::size(kCases); ++i)
    pass = judge(kCases[i], calls_per_op, *stacks[0], totals[0],
                 *stacks[i + 1], totals[i + 1]) &&
           pass;
  std::printf("\nselftest: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace perfbench