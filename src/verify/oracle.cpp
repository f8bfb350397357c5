#include "verify/oracle.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/avc.h"
#include "core/ruleset.h"
#include "verify/reference.h"

namespace sack::verify {

std::string OracleMismatch::to_string() const {
  return engine + " disagrees in state '" + state + "': (" + subject.exe +
         (subject.profile.empty() ? "" : ", @" + subject.profile) + ", " +
         object + ", " + std::string(core::mac_op_name(op)) +
         ") reference=" + std::string(errno_name(reference)) +
         " observed=" + std::string(errno_name(observed));
}

namespace {

// The multiset of active rule texts a rule set should expose for a state,
// straight from State_Per ∘ Per_Rules.
std::vector<std::string> expected_active_texts(
    const core::SackPolicy& policy, const std::vector<std::string>& perms) {
  std::vector<std::string> out;
  for (const auto& perm : perms) {
    auto it = policy.per_rules.find(perm);
    if (it == policy.per_rules.end()) continue;
    for (const auto& rule : it->second) out.push_back(rule.to_text());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> observed_active_texts(const core::DfaRuleSet& rs) {
  std::vector<std::string> out;
  for (const core::MacRule* rule : rs.active_rules())
    out.push_back(rule->to_text());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

OracleReport run_differential_oracle(const core::SackPolicy& policy,
                                     const OracleOptions& options) {
  return run_differential_oracle(policy, build_universe(policy, options.universe),
                                 options);
}

OracleReport run_differential_oracle(const core::SackPolicy& policy,
                                     const Universe& universe,
                                     const OracleOptions& options) {
  OracleReport report;
  ReferenceInterpreter reference(policy);

  core::DfaRuleSet dfa;
  (void)dfa.load(policy);
  core::AccessVectorCache avc;

  // Labels are activation-independent: pre-resolve one per object, exactly
  // what the per-inode cache would hold, and re-decide every tuple through
  // check_labeled as well — the cached-inode sequence must agree with the
  // uncached one in every state.
  const std::uint64_t label_gen = dfa.label_generation();
  std::vector<std::shared_ptr<const core::ObjectLabel>> labels;
  labels.reserve(universe.objects.size());
  for (const auto& o : universe.objects) labels.push_back(dfa.resolve_label(o));

  auto record = [&report, &options](OracleMismatch m) {
    ++report.mismatches_total;
    if (report.mismatches.size() < options.max_mismatches)
      report.mismatches.push_back(std::move(m));
  };

  // Structural cross-check: guard predicate over every generated object.
  for (const auto& o : universe.objects) {
    const bool want = reference.guarded(o);
    const bool got = dfa.guarded(o);
    if (got != want) {
      record({"guard", "(any)", {}, o, core::MacOp::none,
              want ? Errno::eacces : Errno::ok,
              got ? Errno::eacces : Errno::ok});
    }
  }

  std::uint64_t generation = 0;
  for (const auto& state : policy.states) {
    ++report.states_checked;
    ++generation;  // one AVC generation per activation, as the module does
    const auto perms = policy.permissions_of(state.name);
    dfa.activate(perms);

    // Enumeration-hook cross-check: the active rule multiset must be exactly
    // the State_Per ∘ Per_Rules expansion.
    if (observed_active_texts(dfa) != expected_active_texts(policy, perms)) {
      record({"active-set", state.name, {}, "(rule enumeration)",
              core::MacOp::none, Errno::ok, Errno::einval});
    }

    for (const auto& s : universe.subjects) {
      std::vector<core::AccessQuery> batch;
      std::vector<Errno> batch_want;
      for (std::size_t oi = 0; oi < universe.objects.size(); ++oi) {
        const auto& o = universe.objects[oi];
        for (core::MacOp op : universe.ops) {
          ++report.tuples_checked;
          core::AccessQuery q{s.exe, s.profile, o, op};
          Errno want = reference.decide(state.name, q);
          Errno got = dfa.check(q);
          if (got != want) record({"dfa", state.name, s, o, op, want, got});
          Errno dl = dfa.check_labeled(q, *labels[oi], label_gen);
          if (dl != want)
            record({"dfa-labeled", state.name, s, o, op, want, dl});
          batch.push_back(q);
          batch_want.push_back(want);
          // The check_op sequence: probe (miss or generation-stale), insert
          // the computed verdict, re-probe — the hit must serve exactly
          // what the engine computed.
          avc.insert(q, generation, got);
          auto hit = avc.probe(q, generation);
          if (!hit.has_value() || *hit != want) {
            record({"avc", state.name, s, o, op, want,
                    hit.value_or(Errno::einval)});
          } else {
            ++report.avc_hits_verified;
          }
        }
      }
      // Batch-API cross-check: one check_ops call over every (object, op)
      // pair of this subject must reproduce the scalar verdicts.
      if (!batch.empty()) {
        std::vector<Errno> batch_got(batch.size());
        dfa.check_ops(batch, batch_got);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (batch_got[i] != batch_want[i]) {
            record({"dfa-batch", state.name, s,
                    std::string(batch[i].object_path), batch[i].op,
                    batch_want[i], batch_got[i]});
          }
        }
      }
    }
  }
  return report;
}

}  // namespace sack::verify
