// Deterministic corpus-driven fuzz over the policy parser and its consumers.
//
// The corpus is the set of shipped policies (plus the verification fixtures);
// each round applies seeded byte- and token-level mutations and feeds the
// result through the full pipeline a hostile securityfs write would reach:
// parse -> check -> canonical dump -> re-parse, and, when the mutant still
// parses, SSM construction and rule-set compilation. Nothing may crash,
// abort, or trip ASan/UBSan — errors must come back as ParseError /
// Diagnostic values. Runs under the `chaos` ctest label so CI executes it
// sanitized.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy_checker.h"
#include "core/policy_parser.h"
#include "core/ruleset.h"
#include "core/ssm.h"
#include "util/rng.h"

#ifndef SACK_POLICY_DIR
#define SACK_POLICY_DIR "policies"
#endif

namespace sack::core {
namespace {

std::vector<std::string> load_corpus() {
  std::vector<std::string> corpus;
  for (const char* name :
       {"cav_default.sack", "speed_gate.sack", "emergency_failsafe.sack",
        "watchdog_failsafe.sack", "fixtures/escalation_seeded.sack",
        "fixtures/broken_gate.sack"}) {
    std::ifstream in(std::string(SACK_POLICY_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << "cannot open corpus file " << name;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    corpus.push_back(buffer.str());
  }
  return corpus;
}

// The tokens the grammar cares about — splicing these in reaches deeper
// parser states than raw byte noise alone.
constexpr const char* kDictionary[] = {
    "states",  "initial",   "transitions", "events", "watchdog",
    "permissions", "state_per", "per_rules", "allow",  "deny",
    "->",      "on",        "after",       "ms",     "failsafe",
    "{",       "}",         ";",           ":",      ",",
    "*",       "**",        "@profile",    "read",   "write",
    "ioctl",   "/dev/**",   "[a-z]",       "{a,b}",  "\\",
    "#",       "=",         "0xffff",      "-1",     "9999999999999999999",
};

std::string mutate(const std::string& base, Rng& rng) {
  std::string out = base;
  int edits = static_cast<int>(rng.range(1, 8));
  for (int i = 0; i < edits; ++i) {
    if (out.empty()) {
      out = kDictionary[rng.below(std::size(kDictionary))];
      continue;
    }
    switch (rng.below(5)) {
      case 0: {  // flip a byte
        out[rng.below(out.size())] = static_cast<char>(rng.below(256));
        break;
      }
      case 1: {  // delete a span
        std::size_t at = rng.below(out.size());
        std::size_t len = 1 + rng.below(16);
        out.erase(at, len);
        break;
      }
      case 2: {  // splice a dictionary token
        std::size_t at = rng.below(out.size() + 1);
        out.insert(at, kDictionary[rng.below(std::size(kDictionary))]);
        break;
      }
      case 3: {  // duplicate a span (nested sections, repeated rules)
        std::size_t at = rng.below(out.size());
        std::size_t len = std::min<std::size_t>(1 + rng.below(64),
                                                out.size() - at);
        out.insert(at, out.substr(at, len));
        break;
      }
      case 4: {  // truncate (simulates a partial securityfs write)
        out.resize(rng.below(out.size() + 1));
        break;
      }
    }
    // Keep mutants bounded so a pathological duplication chain cannot make
    // the round quadratic.
    if (out.size() > 64 * 1024) out.resize(64 * 1024);
  }
  return out;
}

// One mutant through the whole pipeline. The only acceptable outcomes are
// "parses" or "reports errors" — never a crash.
void exercise(const std::string& text) {
  SectionPresence presence;
  auto parsed = parse_policy(text, &presence);
  // check_policy must hold on whatever the parser produced, even from a
  // document that had errors (partial policies are still checked).
  auto diags = check_policy(parsed.policy, CheckMode::any);
  (void)diags;
  if (!parsed.ok()) return;

  // A clean parse must canonical-dump and re-parse cleanly.
  std::string dump = parsed.policy.to_text();
  auto reparsed = parse_policy(dump);
  EXPECT_TRUE(reparsed.ok())
      << "canonical dump of a valid mutant failed to re-parse:\n"
      << dump;

  // SSM construction either succeeds or reports EINVAL — never crashes.
  auto ssm = SituationStateMachine::build(parsed.policy);
  if (ssm.ok()) (void)ssm.value().current_name();

  // Rule-set compilation (DFA build or scan fallback) accepts any parsed
  // policy.
  DfaRuleSet rules;
  (void)rules.load(parsed.policy);
  rules.activate(parsed.policy.permissions_of(parsed.policy.initial_state));
  AccessQuery q;
  q.subject_exe = "/usr/bin/fuzz_probe";
  q.object_path = "/fuzz/probe";
  q.op = MacOp::read;
  (void)rules.check(q);
}

TEST(PolicyParserFuzz, SeededMutantsNeverCrashThePipeline) {
  auto corpus = load_corpus();
  ASSERT_FALSE(corpus.empty());
  // Fixed seed: every CI run explores the identical mutant set, so a failure
  // here reproduces locally byte for byte.
  Rng rng(0xfeed'5ac4'0000'0001ULL);
  constexpr int kRoundsPerSeed = 400;
  for (const auto& base : corpus) {
    for (int round = 0; round < kRoundsPerSeed; ++round) {
      exercise(mutate(base, rng));
    }
  }
}

TEST(PolicyParserFuzz, HostileHandWrittenInputs) {
  // Regression corpus for parser edge cases: each entry once pointed at a
  // class of bug in some real-world parser (unterminated constructs, deep
  // nesting, stray high bytes, null-ish content).
  std::vector<std::string> inputs = {
      "",
      ";",
      "{",
      "}",
      "states",
      "states {",
      "states { a = ",
      "states { a = 0; } initial",
      "transitions { -> on ; }",
      "per_rules { P { allow } }",
      "per_rules { P { allow * } }",
      "per_rules { P { allow * /x } }",
      "per_rules { P { deny @ /x read; } }",
      "watchdog ms failsafe;",
      "watchdog 10 ms failsafe",
      std::string(4096, '{'),
      std::string(4096, '#'),
      "state_per { a: " + std::string(2000, 'P') + "; }",
      "per_rules { P { allow * /a/{b,{c,{d,e}}}/** read; } }",
      "per_rules { P { allow * /a/[ read; } }",
      "per_rules { P { allow * /a\\ read; } }",
      "events { \xff\xfe\xfd; }",
      "initial \x01\x02;",
  };
  for (const auto& text : inputs) {
    exercise(text);
  }
}

}  // namespace
}  // namespace sack::core
