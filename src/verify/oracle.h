// The differential oracle: the rule engine vs the reference interpreter.
//
// Enumerates every (state, subject, object, op) tuple of the generated
// universe and checks that the production engine agrees with the spec on
// each, through every entry point enforcement uses:
//
//   reference     the naive spec interpreter (verify/reference.h) — truth;
//   dfa           DfaRuleSet::check(), the scalar decision;
//   dfa-labeled   resolve_label + check_labeled, the sequence the per-inode
//                 label cache performs;
//   dfa-batch     the batch check_ops() API;
//   avc           the AccessVectorCache round-trip: miss-probe, insert of
//                 the engine's verdict, then a hit-probe that must return it
//                 — the exact sequence SackModule::check_op performs.
//
// On top of the per-tuple sweep the oracle cross-checks structure: the
// guard-set predicate against the reference definition, and the engine's
// active_rules() enumeration hook against State_Per ∘ Per_Rules.
//
// Any mismatch is a matcher/compiler/cache regression caught before it
// ships; the AVC and snapshot optimizations stay provably equivalent to
// the spec as long as this oracle stays green on the shipped policies.
#pragma once

#include <string>
#include <vector>

#include "core/policy.h"
#include "verify/universe.h"

namespace sack::verify {

struct OracleMismatch {
  // "dfa" | "dfa-labeled" | "dfa-batch" | "avc" | "guard" | "active-set"
  std::string engine;
  std::string state;
  SubjectSample subject;
  std::string object;
  core::MacOp op = core::MacOp::none;
  Errno reference = Errno::ok;
  Errno observed = Errno::ok;

  std::string to_string() const;
};

struct OracleReport {
  std::size_t states_checked = 0;
  std::size_t tuples_checked = 0;
  std::size_t avc_hits_verified = 0;
  std::size_t mismatches_total = 0;
  std::vector<OracleMismatch> mismatches;  // capped at `max_mismatches`

  bool ok() const { return mismatches_total == 0; }
};

struct OracleOptions {
  UniverseOptions universe;
  std::size_t max_mismatches = 32;
};

OracleReport run_differential_oracle(const core::SackPolicy& policy,
                                     const OracleOptions& options = {});

// As above over a pre-built universe (the bench reuses one).
OracleReport run_differential_oracle(const core::SackPolicy& policy,
                                     const Universe& universe,
                                     const OracleOptions& options);

}  // namespace sack::verify
