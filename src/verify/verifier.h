// Verifier: one entry point over the three analysis engines.
//
// `verify_policy` runs, in order:
//
//   1. the policy checker lints (core/policy_checker.h, now
//      subsumption-aware) — structural errors short-circuit the deeper
//      engines, since a policy that cannot load has no meaningful automaton;
//   2. the model checker: state reachability, `never allow` invariants and
//      `can`/`reach` queries with concrete event traces, the per-state
//      privilege-diff / escalation report;
//   3. state-level shadow analysis: allow rules dead under a subsuming deny
//      *across permissions active in the same reachable state* (the
//      per-permission case is the checker's);
//   4. the differential oracle: the DFA rule engine + AVC vs the reference
//      interpreter over the enumerated tuple universe.
//
// The result is a VerifyReport; `has_errors()` is the CI gate contract.
#pragma once

#include <string>
#include <vector>

#include "core/policy.h"
#include "core/policy_checker.h"
#include "verify/oracle.h"
#include "verify/query.h"
#include "verify/report.h"

namespace sack::verify {

struct VerifyOptions {
  core::CheckMode mode = core::CheckMode::any;
  bool run_oracle = true;
  bool run_escalation_report = true;
  bool run_state_shadow = true;
  std::vector<Query> queries;
  OracleOptions oracle;
};

VerifyReport verify_policy(const core::SackPolicy& policy,
                           const VerifyOptions& options = {},
                           std::string policy_name = "(policy)");

// Convenience wrapper: parse `text` first; parse errors become findings.
VerifyReport verify_policy_text(std::string_view text,
                                const VerifyOptions& options = {},
                                std::string policy_name = "(policy)");

}  // namespace sack::verify
