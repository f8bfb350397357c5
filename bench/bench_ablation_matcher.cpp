// A2 ablation (design choice from §III-E): the table-driven DFA rule engine
// vs the reference interpreter (verify/reference.h — Algorithm 1 as a
// naive scan of every rule, what a straightforward port would do), as a
// function of loaded rule count. This is the mechanism behind Table III's
// flat overhead — with a linear matcher the guard check alone would scale
// with policy size; the DFA makes even the miss path independent of rule
// count (one table walk over the path bytes). The AVC column layers the
// access vector cache (core/avc.h) on top of each matcher: at steady state
// the decision collapses to one sharded hash probe regardless of matcher.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <deque>

#include "core/avc.h"
#include "core/ruleset.h"
#include "simbench/capture.h"
#include "simbench/policy_gen.h"
#include "verify/reference.h"

namespace {

using sack::core::AccessQuery;
using sack::core::AccessVectorCache;
using sack::core::DfaRuleSet;
using sack::core::MacOp;
using sack::verify::ReferenceInterpreter;

constexpr int kRuleCounts[] = {10, 100, 1000};

AccessQuery query(std::string_view object, MacOp op) {
  AccessQuery q;
  q.subject_exe = "/usr/bin/media_app";
  q.object_path = object;
  q.op = op;
  return q;
}

// `check` decides one query; it is copied into every registered benchmark.
template <class Check>
void register_checks(Check check, const std::string& tag) {
  // Three probe classes: a guarded literal hit, a guarded miss (different
  // op), and the hot-path common case — an unguarded object.
  benchmark::RegisterBenchmark(
      ("guarded_hit/" + tag).c_str(),
      [check](benchmark::State& s) {
        auto q = query("/var/rules/object_5", MacOp::read);
        for (auto _ : s) benchmark::DoNotOptimize(check(q));
      })
      ->MinTime(0.05);
  benchmark::RegisterBenchmark(
      ("guarded_denied/" + tag).c_str(),
      [check](benchmark::State& s) {
        auto q = query("/var/rules/object_5", MacOp::ioctl);
        for (auto _ : s) benchmark::DoNotOptimize(check(q));
      })
      ->MinTime(0.05);
  benchmark::RegisterBenchmark(
      ("unguarded/" + tag).c_str(),
      [check](benchmark::State& s) {
        auto q = query("/tmp/bench/scratch", MacOp::write);
        for (auto _ : s) benchmark::DoNotOptimize(check(q));
      })
      ->MinTime(0.05);
  // Same guarded-hit probe through an AVC, mirroring SackModule::check_op:
  // probe, fall back to the matcher on a miss, insert. Steady state is all
  // hits, so this measures the cached decision path.
  benchmark::RegisterBenchmark(
      ("guarded_hit_avc/" + tag).c_str(),
      [check](benchmark::State& s) {
        AccessVectorCache avc;
        std::atomic<std::uint64_t> generation{1};
        auto q = query("/var/rules/object_5", MacOp::read);
        for (auto _ : s) {
          const std::uint64_t gen = generation.load(std::memory_order_acquire);
          if (auto cached = avc.probe(q, gen)) {
            benchmark::DoNotOptimize(*cached);
            continue;
          }
          auto rc = check(q);
          avc.insert(q, gen, rc);
          benchmark::DoNotOptimize(rc);
        }
      })
      ->MinTime(0.05);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  // Deques: the engines are pinned in place, and the reference interpreter
  // borrows its policy.
  std::deque<sack::core::SackPolicy> policies;
  std::deque<DfaRuleSet> engines;
  std::deque<ReferenceInterpreter> references;
  const std::vector<std::string> active = {"BULK"};
  std::vector<std::pair<std::string, std::string>> tags;  // (tag, label)

  for (int count : kRuleCounts) {
    const auto& policy = policies.emplace_back(
        sack::simbench::sack_policy_with_rules(count, false));
    DfaRuleSet* dfa = &engines.emplace_back();
    (void)dfa->load(policy);
    dfa->activate(active);
    if (!dfa->table_driven())
      std::fprintf(stderr, "warning: %d-rule policy fell back to scan\n",
                   count);
    const ReferenceInterpreter* reference = &references.emplace_back(policy);

    std::string dtag = "dfa_" + std::to_string(count);
    std::string rtag = "reference_" + std::to_string(count);
    register_checks([dfa](const AccessQuery& q) { return dfa->check(q); },
                    dtag);
    register_checks(
        [reference, &active](const AccessQuery& q) {
          return reference->decide_with_permissions(active, q);
        },
        rtag);
    tags.emplace_back(dtag, "dfa/" + std::to_string(count));
    tags.emplace_back(rtag, "reference/" + std::to_string(count));
  }

  sack::simbench::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  std::printf("\n=== Ablation: dfa (table) vs reference (linear scan) rule "
              "matching ===\n");
  std::printf("%-18s %14s %14s %14s %14s\n", "matcher/rules", "guarded hit",
              "guarded denied", "unguarded", "hit (AVC on)");
  for (const auto& [tag, label] : tags) {
    std::printf("%-18s %11.1f ns %11.1f ns %11.1f ns %11.1f ns\n",
                label.c_str(), reporter.ns("guarded_hit/" + tag),
                reporter.ns("guarded_denied/" + tag),
                reporter.ns("unguarded/" + tag),
                reporter.ns("guarded_hit_avc/" + tag));
  }
  std::printf(
      "\nShape check: the reference scan's cost grows linearly with rule\n"
      "count, which would put MAC-check latency on every file operation at\n"
      "1000+ rules (cf. Table III). The DFA rows are flat in rule count on\n"
      "every probe class — guarded hit, denied, and unguarded all cost one\n"
      "table walk over the path. The AVC column is ~constant for *both*\n"
      "matchers at any rule count — a steady-state hit never reaches the\n"
      "matcher at all.\n");
  return 0;
}
