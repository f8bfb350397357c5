// fleet_rollout: a fleet of 1000 vehicles on 2 shard threads with SDS off.
// Each iteration runs the vehicles' batched check workload across all
// shards three times, one benign rollout (alternating two good policy
// versions) and three rollouts of fleet_policy_bad, which the health gate
// must roll back.
// Exercises what the other workloads do not: threads, batched check_ops,
// policy load (parse, check, DFA build), the verify gate, and per-vehicle
// memory.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "fleet/rollout.h"
#include "util/rng.h"
#include "verify/verifier.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sack::fleet::Fleet;
using sack::fleet::PolicyVersion;
using sack::fleet::RolloutController;
using sack::fleet::RolloutOutcome;
using sack::fleet::Vehicle;

constexpr std::size_t kVehicles = 1000;
// Two shard threads on a four-vCPU host: the check phases still run
// threads, and two vCPUs stay free for the host's other load. With one shard
// per vCPU the check rate swung by 40-50% between runs of the same code as
// that load came and went.
constexpr std::size_t kShards = 2;
// setup_s is the median of kSetups boots before the measurement and
// kSpreadSetups spread through it, so it samples the whole run's machine.
constexpr int kSetups = 3;
constexpr int kSpreadSetups = 12;
// Per iteration: check phases and regressions per benign rollout. A benign
// rollout touches every vehicle (~0.2 s); the others are short, so they
// repeat to give their medians more samples.
constexpr int kPhasesPerIteration = 3;
constexpr int kRegressionsPerIteration = 3;
// Vehicle::run_workload's fixed mix: 6 checks per round, of which the OTA
// and rescue reads of the VIN are denied in the parked state.
constexpr std::uint64_t kChecksPerRound = 6;
// Workload rounds per vehicle per phase. Fixed, not seeded: each vehicle's
// first round pays for bringing its state into cache and the rest reuse it,
// so the round count sets the check rate.
constexpr std::size_t kRounds = 32;
constexpr std::uint64_t kDenialsPerRound = 2;

struct Inputs {
  std::array<std::string, 2> good;  // alternating benign versions
  std::string bad;

  static Inputs generate(std::uint64_t seed) {
    sack::Rng rng(seed ^ 0x1b3e'cafe'0000'0003ULL);
    Inputs in;
    const std::string media_rule = "allow * /var/media/** read getattr;";
    const std::array<std::string, 2> base = {sack::fleet::fleet_policy_v1(),
                                             sack::fleet::fleet_policy_v2()};
    for (std::size_t i = 0; i < 2; ++i) {
      // A seeded, verdict-neutral grant keeps each run's policies distinct.
      std::string text = base[i];
      const auto at = text.find(media_rule);
      if (at != std::string::npos) {
        text.insert(at + media_rule.size(),
                    " allow * /var/cache/fleet" + std::to_string(rng.below(1u << 20)) +
                        "/** read;");
      }
      in.good[i] = std::move(text);
    }
    in.bad = sack::fleet::fleet_policy_bad();
    return in;
  }
};

}  // namespace

RunResult run_fleet_rollout(const RunOptions& options) {
  RunResult result;
  const Inputs in = Inputs::generate(options.seed);
  auto initial = sack::fleet::make_policy_version(1, in.good[0]);
  result.check(initial.ok(), "initial policy does not parse");
  if (!initial.ok()) return result;

  sack::fleet::FleetConfig config;
  config.vehicles = kVehicles;
  config.shards = kShards;
  config.start_sds = false;

  std::vector<double> setup_s;
  double rss_growth_kb = 0;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const double rss0 = rss_kb();
    const std::uint64_t t0 = now_ns();
    fleet = std::make_unique<Fleet>(config, *initial);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (i == 0) rss_growth_kb = rss_kb() - rss0;
  }
  result.check(fleet->converged_on(1) && fleet->shards() == kShards,
               "fleet boot did not converge");

  RolloutController controller(*fleet);
  // Traced runs time policy load and the verify gate on a vehicle outside
  // the fleet, so the fleet's own rollouts stay untouched.
  std::unique_ptr<Vehicle> spare;
  if (options.trace) spare = std::make_unique<Vehicle>(
      sack::fleet::VehicleConfig{.id = 0, .start_sds = false,
                                 .default_detectors = false},
      *initial);

  const std::size_t chunk = (kVehicles + kShards - 1) / kShards;
  // Each plain check phase's rate: its checks over its wall time (spawn,
  // every shard's batches, join), so the slowest shard sets it.
  std::vector<double> phase_rate;
  double traced_wall = 0, traced_checks = 0, probed_phases = 0;
  // Whole iterations, traced-only work included (trace_overhead).
  Samples iterations_plain, iterations_traced;
  Samples rollout_ns, rollback_ns;
  std::array<double, kShards> busy_ns{};
  Samples load_ms, gate_ms;
  std::uint64_t pushes = 0, rollouts = 0;
  std::uint64_t version = 1;
  std::uint64_t live = 1;
  std::size_t next_good = 1;
  bool traced_turn = false;

  const std::uint64_t start = now_ns();
  const auto run_ns = static_cast<std::uint64_t>(options.seconds * 1e9);
  int spread_setups = 0;
  while (now_ns() < start + run_ns) {
    if (spread_setups < kSpreadSetups &&
        now_ns() >= start + run_ns / kSpreadSetups * spread_setups) {
      ++spread_setups;
      const std::uint64_t t0 = now_ns();
      auto spare_fleet = std::make_unique<Fleet>(config, *initial);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      result.check(spare_fleet->converged_on(1), "fleet boot did not converge");
      spare_fleet.reset();
    }
    // Traced runs alternate probed and plain iterations (trace_overhead).
    const bool probe = options.trace && traced_turn;
    traced_turn = !traced_turn;
    const std::uint64_t iteration0 = now_ns();

    // --- check workload on every shard ---
    for (int p = 0; p < kPhasesPerIteration; ++p) {
      // One writer per shard; padded so the shard threads share no line.
      struct alignas(64) Tally {
        std::uint64_t checks = 0, denials = 0, ns = 0;
      };
      std::array<Tally, kShards> tally{};
      const std::uint64_t t0 = now_ns();
      fleet->for_each([&](Vehicle& v) {
        const std::size_t shard = v.id() / chunk;
        const std::uint64_t v0 = now_ns();
        const auto stats = v.run_workload(kRounds);
        const std::uint64_t ns = now_ns() - v0;
        tally[shard].ns += ns;
        tally[shard].checks += stats.checks;
        tally[shard].denials += stats.denials;
      });
      const std::uint64_t phase_ns = now_ns() - t0;
      std::uint64_t all_checks = 0, all_denials = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        all_checks += tally[s].checks;
        all_denials += tally[s].denials;
      }
      const std::uint64_t expected_rounds = kRounds * kVehicles;
      result.check(all_checks == expected_rounds * kChecksPerRound &&
                       all_denials == expected_rounds * kDenialsPerRound,
                   "workload verdicts differ from the policy");
      if (!probe) {
        phase_rate.push_back(static_cast<double>(all_checks) /
                             (static_cast<double>(phase_ns) / 1e9));
      } else {
        traced_wall += static_cast<double>(phase_ns);
        traced_checks += static_cast<double>(all_checks);
        for (std::size_t s = 0; s < kShards; ++s)
          busy_ns[s] += static_cast<double>(tally[s].ns);
        ++probed_phases;
      }
    }

    // --- benign rollout ---
    auto good = sack::fleet::make_policy_version(++version, in.good[next_good]);
    next_good ^= 1;
    result.check(good.ok(), "good policy does not parse");
    if (!good.ok()) return result;
    if (probe) {
      std::uint64_t g0 = now_ns();
      sack::verify::VerifyOptions gate;
      const auto report = sack::verify::verify_policy(good->policy, gate);
      gate_ms.add(static_cast<double>(now_ns() - g0) / 1e6);
      result.check(!report.has_errors(), "verify gate rejects a good policy");
      g0 = now_ns();
      result.check(spare->apply_policy(*good).ok(), "spare vehicle load");
      load_ms.add(static_cast<double>(now_ns() - g0) / 1e6);
    }
    const std::uint64_t r0 = now_ns();
    const auto up = controller.roll_out(*good);
    rollout_ns.add(static_cast<double>(now_ns() - r0));
    result.check(up.outcome == RolloutOutcome::committed &&
                     up.fully_converged && up.mixed_version_vehicles == 0 &&
                     fleet->converged_on(version),
                 "benign rollout did not converge");
    live = version;
    pushes += up.pushes;
    ++rollouts;

    // --- regressions, caught by the health gate and rolled back ---
    for (int r = 0; r < kRegressionsPerIteration; ++r) {
      auto bad = sack::fleet::make_policy_version(++version, in.bad);
      result.check(bad.ok(), "bad policy does not parse");
      if (!bad.ok()) return result;
      const auto down = controller.roll_out(*bad);
      rollback_ns.add(static_cast<double>(down.rollback_ns));
      result.check(down.outcome == RolloutOutcome::rolled_back &&
                       down.fully_converged && down.mixed_version_vehicles == 0 &&
                       down.equivalence_mismatches == 0 &&
                       fleet->converged_on(live),
                   "bad rollout was not cleanly rolled back");
      pushes += down.pushes;
      ++rollouts;
    }
    (probe ? iterations_traced : iterations_plain)
        .add(static_cast<double>(now_ns() - iteration0));
  }

  const double boot_s = median(setup_s);
  if (!options.trace) {
    result.end_to_end["setup_s"] = {boot_s, "s"};
    // The median phase: a phase in which the host took a shard's vCPU away
    // for a while is an outlier, not a share of the figure.
    result.end_to_end["ops_per_s"] = {median(phase_rate), "1/s"};
    result.end_to_end["latency_us"] = {
        geomean({rollout_ns.mean(), rollback_ns.mean()}) / 1e3, "us"};
    result.end_to_end["rss_kb_per_vehicle"] = {
        rss_growth_kb / static_cast<double>(kVehicles), "KB"};
    MetricMap& r = result.report;
    double which = 0;
    r["rollout_ms"] = {rollout_ns.percentile(50) / 1e6, "ms"};
    r["rollback_ms"] = {rollback_ns.percentile(50) / 1e6, "ms"};
    r["rollout_mean_ms"] = {rollout_ns.mean() / 1e6, "ms"};
    r["rollback_mean_ms"] = {rollback_ns.mean() / 1e6, "ms"};
    const double rollout_tail = rollout_ns.tail(&which);
    r["rollout_p" + std::to_string(static_cast<int>(which)) + "_ms"] = {
        rollout_tail / 1e6, "ms"};
    const double rollback_tail = rollback_ns.tail(&which);
    r["rollback_p" + std::to_string(static_cast<int>(which)) + "_ms"] = {
        rollback_tail / 1e6, "ms"};
    r["check_phases"] = {static_cast<double>(phase_rate.size()), "count"};
    r["rollouts"] = {static_cast<double>(rollout_ns.count()), "count"};
    r["rollbacks"] = {static_cast<double>(rollback_ns.count()), "count"};
    return result;
  }

  MetricMap& m = result.per_layer;
  double busy_sum = 0, busy_max = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    m["fleet.shard_busy_s." + std::to_string(s)] = {
        probed_phases ? busy_ns[s] / probed_phases / 1e9 : 0.0, "s"};
    busy_sum += busy_ns[s];
    busy_max = std::max(busy_max, busy_ns[s]);
  }
  const double busy_mean = busy_sum / static_cast<double>(kShards);
  m["fleet.shard_imbalance"] = {busy_mean > 0 ? busy_max / busy_mean : 0.0,
                                "ratio"};
  m["fleet.boot_ms_per_vehicle"] = {
      boot_s * 1e3 / static_cast<double>(kVehicles), "ms"};
  m["fleet.pushes"] = {
      rollouts ? static_cast<double>(pushes) / static_cast<double>(rollouts)
               : 0.0,
      "count"};
  m["sack.check_ops_ns"] = {traced_checks ? busy_sum / traced_checks : 0.0,
                            "ns"};
  m["sack.load_policy_ms"] = {load_ms.percentile(50), "ms"};
  m["verify.gate_ms"] = {gate_ms.percentile(50), "ms"};
  m["residual_share"] = {traced_wall ? 1.0 - busy_mean / traced_wall : 0.0,
                         "ratio"};
  m["trace_overhead"] = {
      iterations_traced.count() && iterations_plain.count()
          ? iterations_traced.mean() / iterations_plain.mean() - 1
          : 0.0,
      "ratio"};
  return result;
}

}  // namespace perfbench
