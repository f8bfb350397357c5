// The reference interpreter: SACK access decisions straight from the spec.
//
// This is the differential oracle's ground truth, deliberately written as a
// naive transliteration of the paper's Algorithm 1 over the raw SackPolicy
// model — no compilation, no indexes, no caches, no activation state. Every
// decision recomputes:
//
//   guarded(o)        := some rule of some permission names o
//   active(SS)        := concat of Per_Rules[p] for p in State_Per[SS]
//   decide(SS, s,o,op): unguarded objects are OK; otherwise a matching
//                       active deny refuses, a matching active allow
//                       admits, and nothing matching refuses (POLP).
//
// If DfaRuleSet's snapshots, automaton, label masks, or the AVC ever
// disagree with this function on any enumerated tuple, one of them is wrong
// — and this one is simple enough to audit by eye.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/policy.h"
#include "core/ruleset.h"

namespace sack::verify {

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(const core::SackPolicy& policy)
      : policy_(policy) {}

  // True if any rule in any permission names `object_path`.
  bool guarded(std::string_view object_path) const;

  // The full decision for `query` with the permissions of `state` active.
  Errno decide(std::string_view state, const core::AccessQuery& query) const;

  // As above, over an explicit active-permission list (used to cross-check
  // activation plumbing separately from State_Per resolution).
  Errno decide_with_permissions(const std::vector<std::string>& permissions,
                                const core::AccessQuery& query) const;

  const core::SackPolicy& policy() const { return policy_; }

 private:
  const core::SackPolicy& policy_;
};

}  // namespace sack::verify
