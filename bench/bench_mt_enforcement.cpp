// Multi-threaded enforcement hot path: the AVC + snapshot-publication
// optimisation, measured end to end at the rule-set level on DfaRuleSet,
// the engine SackModule enforces with.
//
// Four experiments, all driving the exact probe-then-match sequence
// SackModule::check_op runs:
//
//  1. single-thread guarded steady state, AVC off vs on — the per-operation
//     win of caching a verdict instead of re-running the table walk
//     (target: >= 3x at steady state);
//  2. throughput scaling over 1..8 threads on unguarded+cached traffic —
//     the read path shares no mutable state beyond a sharded cache probe,
//     so throughput should scale with cores (flat on a 1-core box);
//  3. transition storms at Fig 3(b) frequencies (1..1000 transitions/sec)
//     racing 4 enforcement threads — adaptive revocation pressure: every
//     transition republishes the active masks, bumps the generation, and
//     flushes the AVC. Activation is a mask swap and every post-flush AVC
//     miss re-runs only the table walk, so storm throughput should stay
//     within ~10% of the 4-thread steady state;
//  4. per-stage attribution (AVC probe vs table walk), plus the Table-III
//     shape: the 1000-rule miss-path percentiles, where the DFA's
//     rule-count independence shows against the reference interpreter's
//     linear scan.
//
// Results print as a table and land in BENCH_mt.json (threads -> ops/sec,
// AVC hit rate, per-stage percentiles).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/avc.h"
#include "core/policy_parser.h"
#include "core/ruleset.h"
#include "simbench/policy_gen.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "verify/reference.h"

namespace {

using sack::Errno;
using sack::core::AccessQuery;
using sack::core::AccessVectorCache;
using sack::core::DfaRuleSet;
using sack::core::MacOp;

// A glob-heavy policy: the shape where per-operation matching actually
// hurts for a per-rule matcher (every glob is a scan step for guarded *and*
// unguarded queries); the DFA folds all of them into one table.
constexpr int kStreams = 32;
constexpr int kTracksPerStream = 8;

std::string build_policy_text() {
  std::string rules_a, rules_b;
  for (int i = 0; i < kStreams; ++i) {
    rules_a += "    allow * /var/media/stream_" + std::to_string(i) +
               "/** read getattr;\n";
    // ALT swaps every second stream to write-only: a real verdict change.
    rules_b += i % 2 ? "    allow * /var/media/stream_" + std::to_string(i) +
                           "/** read getattr;\n"
                     : "    allow * /var/media/stream_" + std::to_string(i) +
                           "/** write;\n";
  }
  return "states { cruising = 0; parked = 1; }\n"
         "initial cruising;\n"
         "transitions { cruising -> parked on stop; parked -> cruising on "
         "go; }\n"
         "permissions { STREAMING; PARKED_MEDIA; }\n"
         "state_per { cruising: STREAMING; parked: PARKED_MEDIA; }\n"
         "per_rules {\n  STREAMING {\n" +
         rules_a + "  }\n  PARKED_MEDIA {\n" + rules_b + "  }\n}\n";
}

// The same sequence as SackModule::check_op: read the generation, probe the
// AVC, fall back to the rule walk, insert under the pre-read stamp.
struct Enforcer {
  DfaRuleSet rules;
  AccessVectorCache avc{8192};
  std::atomic<std::uint64_t> generation{1};
  bool use_avc = true;

  Errno check(const AccessQuery& q) {
    const std::uint64_t gen = generation.load(std::memory_order_acquire);
    if (use_avc) {
      if (auto cached = avc.probe(q, gen)) return *cached;
    }
    Errno rc = rules.check(q);
    if (use_avc) avc.insert(q, gen, rc);
    return rc;
  }
};

std::vector<std::string> guarded_paths() {
  std::vector<std::string> paths;
  for (int s = 0; s < kStreams; ++s)
    for (int t = 0; t < kTracksPerStream; ++t)
      paths.push_back("/var/media/stream_" + std::to_string(s) + "/track_" +
                      std::to_string(t) + ".pcm");
  return paths;
}

std::vector<std::string> unguarded_paths() {
  std::vector<std::string> paths;
  for (int i = 0; i < 256; ++i)
    paths.push_back("/tmp/scratch/file_" + std::to_string(i));
  return paths;
}

// Drives `threads` workers over `paths` for `duration_ms`, returns total
// ops/sec. Each worker cycles its own offset so threads don't run in
// lockstep on the same key.
double run_workload(Enforcer& enf, const std::vector<std::string>& paths,
                    int threads, int duration_ms) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::string exe = "/usr/bin/ivi_media";
      std::uint64_t ops = 0;
      std::size_t i = static_cast<std::size_t>(t) * 7;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int burst = 0; burst < 64; ++burst, ++i, ++ops) {
          AccessQuery q;
          q.subject_exe = exe;
          q.object_path = paths[i % paths.size()];
          q.op = MacOp::read;
          Errno rc = enf.check(q);
          if (rc != Errno::ok && rc != Errno::eacces) std::abort();
        }
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return static_cast<double>(total_ops.load()) / secs;
}

struct StormResult {
  double ops_per_sec = 0;
  double hit_rate = 0;
  std::uint64_t transitions = 0;
};

// Readers race a control thread that flips the active permission set (the
// APE sequence: republish snapshot, bump generation, flush AVC) at the
// given rate.
StormResult run_storm(Enforcer& enf, int threads, int transitions_per_sec,
                      int duration_ms) {
  auto paths = guarded_paths();
  auto scratch = unguarded_paths();
  paths.insert(paths.end(), scratch.begin(), scratch.end());

  enf.avc.invalidate_all();
  enf.avc.reset_stats();

  std::atomic<bool> stop{false};
  std::uint64_t transitions = 0;
  std::thread storm([&] {
    const auto period =
        std::chrono::microseconds(1'000'000 / transitions_per_sec);
    bool parked = false;
    while (!stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(period);
      parked = !parked;
      enf.rules.activate(parked ? std::vector<std::string>{"PARKED_MEDIA"}
                                 : std::vector<std::string>{"STREAMING"});
      enf.generation.fetch_add(1, std::memory_order_release);
      enf.avc.invalidate_all();
      ++transitions;
    }
  });

  StormResult r;
  r.ops_per_sec = run_workload(enf, paths, threads, duration_ms);
  stop.store(true, std::memory_order_relaxed);
  storm.join();
  r.hit_rate = enf.avc.stats().hit_rate();
  r.transitions = transitions;
  // Restore the steady state for whoever runs next.
  enf.rules.activate({"STREAMING"});
  enf.generation.fetch_add(1, std::memory_order_release);
  enf.avc.invalidate_all();
  return r;
}

// Per-stage attribution: the same check sequence, timed per stage with the
// module's log2 histograms. Steady state (cache warm) so the probe numbers
// are the hit path and the walk numbers come from the miss-only warmup.
struct StageHistograms {
  sack::util::LatencyHistogram probe_ns;   // AVC probe, hit or miss
  sack::util::LatencyHistogram walk_ns;    // rule walk on AVC miss
  sack::util::LatencyHistogram total_ns;   // full check
};

void run_instrumented(Enforcer& enf, const std::vector<std::string>& paths,
                      int iterations, StageHistograms& h) {
  const std::string exe = "/usr/bin/ivi_media";
  std::size_t i = 0;
  for (int n = 0; n < iterations; ++n, ++i) {
    AccessQuery q;
    q.subject_exe = exe;
    q.object_path = paths[i % paths.size()];
    q.op = MacOp::read;
    const std::uint64_t gen =
        enf.generation.load(std::memory_order_acquire);
    const std::uint64_t t0 = sack::monotonic_ns();
    auto cached = enf.avc.probe(q, gen);
    const std::uint64_t t1 = sack::monotonic_ns();
    h.probe_ns.record(t1 - t0);
    if (!cached) {
      Errno rc = enf.rules.check(q);
      const std::uint64_t t2 = sack::monotonic_ns();
      h.walk_ns.record(t2 - t1);
      enf.avc.insert(q, gen, rc);
      h.total_ns.record(t2 - t0);
    } else {
      h.total_ns.record(t1 - t0);
    }
  }
}

}  // namespace

int main() {
  const auto parsed = sack::core::parse_policy(build_policy_text());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench policy failed to parse\n");
    return 1;
  }

  Enforcer enf;
  (void)enf.rules.load(parsed.policy);
  enf.rules.activate({"STREAMING"});
  if (!enf.rules.table_driven())
    std::fprintf(stderr, "warning: stream policy fell back to scan\n");

  const unsigned hw_threads = std::thread::hardware_concurrency();
  constexpr int kDurationMs = 250;
  const auto guarded = guarded_paths();
  const auto unguarded = unguarded_paths();

  std::printf("=== MT enforcement: AVC + snapshot publication ===\n");
  std::printf("hardware threads: %u, policy: %d glob rules active\n\n",
              hw_threads, kStreams);

  // (1) single-thread guarded steady state, AVC off vs on.
  enf.use_avc = false;
  const double off_ops = run_workload(enf, guarded, 1, kDurationMs);
  enf.use_avc = true;
  enf.avc.invalidate_all();
  enf.avc.reset_stats();
  (void)run_workload(enf, guarded, 1, 50);  // warm the cache to steady state
  const double on_ops = run_workload(enf, guarded, 1, kDurationMs);
  const double speedup = on_ops / off_ops;
  std::printf("guarded 1-thread:  AVC off %12.0f ops/s\n", off_ops);
  std::printf("guarded 1-thread:  AVC on  %12.0f ops/s   speedup %.2fx %s\n\n",
              on_ops, speedup, speedup >= 3.0 ? "(target >=3x: MET)"
                                              : "(target >=3x: MISSED)");

  // (2) thread scaling on unguarded+cached traffic.
  struct ScalePoint {
    int threads;
    double ops_per_sec;
    double hit_rate;
  };
  std::vector<ScalePoint> scaling;
  std::printf("unguarded+cached scaling:\n");
  for (int threads : {1, 2, 4, 8}) {
    enf.avc.invalidate_all();
    enf.avc.reset_stats();
    (void)run_workload(enf, unguarded, threads, 50);  // warm
    const double ops = run_workload(enf, unguarded, threads, kDurationMs);
    const double rate = enf.avc.stats().hit_rate();
    scaling.push_back({threads, ops, rate});
    std::printf("  %d thread(s): %12.0f ops/s  (avc hit rate %.3f, %.2fx "
                "of 1-thread)\n",
                threads, ops, rate, ops / scaling.front().ops_per_sec);
  }

  // (3) transition storms at Fig 3(b) frequencies, against the 4-thread
  // guarded steady state.
  enf.avc.invalidate_all();
  enf.avc.reset_stats();
  (void)run_workload(enf, guarded, 4, 50);  // warm
  const double steady_ops = run_workload(enf, guarded, 4, kDurationMs);
  std::printf("\nguarded steady state (4 threads): %12.0f ops/s\n",
              steady_ops);
  std::printf("transition storm (4 enforcement threads):\n");
  struct StormPoint {
    int rate;
    StormResult result;
  };
  std::vector<StormPoint> storms;
  for (int rate : {1, 10, 100, 1000}) {
    auto r = run_storm(enf, 4, rate, kDurationMs);
    storms.push_back({rate, r});
    std::printf("  %4d transitions/s: %12.0f ops/s  (%.1f%% of steady, avc "
                "hit rate %.3f, %llu transitions)\n",
                rate, r.ops_per_sec, 100.0 * r.ops_per_sec / steady_ops,
                r.hit_rate, static_cast<unsigned long long>(r.transitions));
  }

  std::printf(
      "\nShape check: AVC-on guarded traffic should sit above the table-walk\n"
      "baseline (every hit replaces a DFA walk with one sharded hash probe),\n"
      "throughput should grow with threads up to the core count, and storms\n"
      "should degrade hit rate gracefully rather than serve stale verdicts\n"
      "(correctness is covered by tests/test_avc.cpp).\n");

  // (4) per-stage latency attribution (steady-state, single thread): where
  // a check spends its time — the AVC probe vs the table walk.
  enf.avc.invalidate_all();
  enf.avc.reset_stats();
  StageHistograms stages;
  run_instrumented(enf, guarded, 200'000, stages);
  std::printf("\nper-stage latency (guarded, steady state):\n");
  std::printf("  avc_probe:    %s\n", stages.probe_ns.summary().c_str());
  std::printf("  matcher_walk: %s\n", stages.walk_ns.summary().c_str());
  std::printf("  check_total:  %s\n", stages.total_ns.summary().c_str());

  // Table-III shape: the 1000-rule policy's *miss* path — the number that
  // motivates the DFA. No AVC: every check is a full decision. The
  // reference scan is ~1000x slower per query, so it is timed over fewer
  // samples; its verdict per path is what every DFA query must reproduce.
  const auto table3_policy = sack::simbench::sack_policy_with_rules(1000, false);
  DfaRuleSet dfa_1000;
  (void)dfa_1000.load(table3_policy);
  dfa_1000.activate({"BULK"});
  const sack::verify::ReferenceInterpreter reference_1000(table3_policy);
  const std::vector<std::string> bulk = {"BULK"};
  sack::util::LatencyHistogram dfa_miss_ns, reference_miss_ns;
  {
    std::vector<std::string> miss_paths;
    for (int i = 0; i < 64; ++i)
      miss_paths.push_back("/var/rules/object_" + std::to_string(i * 7));
    AccessQuery q;
    q.subject_exe = "/usr/bin/media_app";
    q.op = MacOp::read;
    std::vector<Errno> want(miss_paths.size());
    for (int n = 0; n < 2'048; ++n) {
      const std::size_t p = static_cast<std::size_t>(n) % miss_paths.size();
      q.object_path = miss_paths[p];
      const std::uint64_t t0 = sack::monotonic_ns();
      want[p] = reference_1000.decide_with_permissions(bulk, q);
      reference_miss_ns.record(sack::monotonic_ns() - t0);
    }
    for (int n = 0; n < 200'000; ++n) {
      const std::size_t p = static_cast<std::size_t>(n) % miss_paths.size();
      q.object_path = miss_paths[p];
      const std::uint64_t t0 = sack::monotonic_ns();
      Errno rc = dfa_1000.check(q);
      dfa_miss_ns.record(sack::monotonic_ns() - t0);
      if (rc != want[p]) std::abort();  // the oracle's job, but never run blind
    }
  }
  std::printf("\n1000-rule miss path (no AVC):\n");
  std::printf("  dfa check:       %s  (target: dfa p50 <= 300 ns %s)\n",
              dfa_miss_ns.summary().c_str(),
              dfa_miss_ns.percentile_ns(50) <= 300.0 ? "MET" : "MISSED");
  std::printf("  reference check: %s\n", reference_miss_ns.summary().c_str());

  // Machine-readable trajectory for future PRs.
  std::ofstream json("BENCH_mt.json");
  json << "{\n"
       << "  \"hardware_threads\": " << hw_threads << ",\n"
       << "  \"single_thread_guarded\": {\n"
       << "    \"avc_off_ops_per_sec\": " << static_cast<long long>(off_ops)
       << ",\n"
       << "    \"avc_on_ops_per_sec\": " << static_cast<long long>(on_ops)
       << ",\n"
       << "    \"speedup\": " << speedup << "\n  },\n"
       << "  \"scaling_unguarded_cached\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    json << "    {\"threads\": " << scaling[i].threads << ", \"ops_per_sec\": "
         << static_cast<long long>(scaling[i].ops_per_sec)
         << ", \"avc_hit_rate\": " << scaling[i].hit_rate << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"steady_ops_per_sec\": "
       << static_cast<long long>(steady_ops) << ",\n"
       << "  \"transition_storm\": [\n";
  for (std::size_t i = 0; i < storms.size(); ++i) {
    json << "    {\"transitions_per_sec\": " << storms[i].rate
         << ", \"threads\": 4, \"ops_per_sec\": "
         << static_cast<long long>(storms[i].result.ops_per_sec)
         << ", \"fraction_of_steady\": "
         << storms[i].result.ops_per_sec / steady_ops
         << ", \"avc_hit_rate\": " << storms[i].result.hit_rate
         << ", \"transitions_taken\": " << storms[i].result.transitions << "}"
         << (i + 1 < storms.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"per_stage\": {\n"
       << "    \"avc_probe_ns\": " << stages.probe_ns.json() << ",\n"
       << "    \"matcher_walk_ns\": " << stages.walk_ns.json() << ",\n"
       << "    \"check_total_ns\": " << stages.total_ns.json() << "\n  },\n";
  json << "  \"dfa_miss_1000_rules\": {\n"
       << "    \"dfa_check_ns\": " << dfa_miss_ns.json() << ",\n"
       << "    \"reference_check_ns\": " << reference_miss_ns.json()
       << "\n  }\n";
  json << "}\n";
  std::printf("\nwrote BENCH_mt.json\n");
  return 0;
}
