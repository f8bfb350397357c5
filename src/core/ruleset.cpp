#include "core/ruleset.h"

#include <atomic>

#include "util/fault.h"

namespace sack::core {

namespace {

bool subject_matches(const MacRule& rule, const AccessQuery& query) {
  switch (rule.subject_kind) {
    case SubjectKind::any:
      return true;
    case SubjectKind::path:
      return rule.subject_glob.matches(query.subject_exe);
    case SubjectKind::profile:
      return !query.subject_profile.empty() &&
             rule.subject_text == query.subject_profile;
  }
  return false;
}

// Process-wide label-generation source. Labels are stamped onto inodes that
// several module/rule-set instances can share (one VFS, stacked or test
// fixtures side by side), and the inode cache keys on (module name, gen):
// per-instance counters would both count 1, 2, 3…, letting one instance hit
// a label resolved under another's rule numbering. A global counter makes
// every load() generation unique across the process.
std::atomic<std::uint64_t> g_label_gen{0};

}  // namespace

DfaRuleSet::DfaRuleSet(GlobDfa::BuildLimits limits) : build_limits_(limits) {
  // Never-null snapshot: readers skip a branch, and a check() before the
  // first load() is simply "nothing guarded".
  snap_.store(make_snapshot(std::make_shared<const Program>(), {}));
}

std::shared_ptr<const ObjectLabel> DfaRuleSet::Program::resolve(
    std::string_view path) const {
  // Copy the accept mask out of the DFA's per-state storage rather than
  // aliasing it: resolve() feeds the inode label cache, and an aliased
  // pointer would keep this entire Program (policy copy + DFA tables) alive
  // for as long as any inode anywhere still holds a label from it. The copy
  // costs one allocation on the resolve (store) path only — label *hits*
  // never come through here.
  if (dfa) return std::make_shared<ObjectLabel>(dfa->match(path));
  // Scan fallback: materialize the mask rule by rule.
  auto label = std::make_shared<ObjectLabel>(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i]->object.matches(path)) label->set(i);
  }
  return label;
}

Result<void> DfaRuleSet::load(const SackPolicy& policy) {
  if (auto err =
          util::FaultInjector::instance().fail_errno("sack.ruleset.load"))
    return *err;
  auto base = std::make_shared<Program>();
  base->policy = policy;  // own a copy: rule ids index into it

  for (const auto& [perm, rules] : base->policy.per_rules) {
    auto& slot = base->by_permission[perm];
    for (const auto& rule : rules) {
      slot.push_back(static_cast<std::uint32_t>(base->rules.size()));
      base->rules.push_back(&rule);
    }
  }
  std::vector<const Glob*> patterns;
  patterns.reserve(base->rules.size());
  for (const MacRule* rule : base->rules) patterns.push_back(&rule->object);
  if (!patterns.empty()) {
    auto dfa = GlobDfa::build(patterns, build_limits_);
    // Budget blown: keep the scan fallback (correctness unchanged).
    if (dfa.ok()) base->dfa = std::move(dfa).value();
  }
  base->label_gen =
      g_label_gen.fetch_add(1, std::memory_order_relaxed) + 1;  // never 0
  snap_.store(make_snapshot(std::move(base), {}));
  return {};
}

std::shared_ptr<const DfaRuleSet::Snapshot> DfaRuleSet::make_snapshot(
    std::shared_ptr<const Program> base,
    const std::vector<std::string>& permissions) {
  auto snap = std::make_shared<Snapshot>();
  const std::size_t n = base->rules.size();
  snap->active_allow.assign(kMacOpCount, ObjectLabel(n));
  snap->active_deny.assign(kMacOpCount, ObjectLabel(n));
  for (const auto& perm : permissions) {
    auto it = base->by_permission.find(perm);
    if (it == base->by_permission.end()) continue;
    for (std::uint32_t id : it->second) {
      const MacRule* rule = base->rules[id];
      snap->active_list.push_back(rule);
      auto& masks = rule->effect == RuleEffect::allow ? snap->active_allow
                                                      : snap->active_deny;
      for (std::size_t i = 0; i < kMacOpCount; ++i) {
        if (has_any(rule->ops, mac_op_from_index(i))) masks[i].set(id);
      }
    }
  }
  snap->base = std::move(base);
  return snap;
}

void DfaRuleSet::activate(const std::vector<std::string>& permissions) {
  // The DFA is untouched: a transition republishes only the active masks.
  // All rebuild work happens on this (control) thread against a private
  // snapshot; readers see either the old or the new one, never a partial.
  snap_.store(make_snapshot(snapshot()->base, permissions));
}

Errno DfaRuleSet::decide(const Snapshot& snap, const AccessQuery& query,
                         const ObjectLabel& label) {
  // An empty label means no loaded rule names this path: unguarded, OK.
  if (label.none()) return Errno::ok;

  const std::size_t op = mac_op_index(query.op);
  if (op >= kMacOpCount) return Errno::einval;

  const std::vector<const MacRule*>& rules = snap.base->rules;
  // Deny wins over any allow; subject predicates only run on the (few)
  // candidate rules the mask intersection leaves.
  Errno verdict = Errno::eacces;
  bool denied = false;
  DenseBitset::for_each_and(label, snap.active_deny[op],
                            [&](std::size_t id) {
                              if (!denied &&
                                  subject_matches(*rules[id], query))
                                denied = true;
                            });
  if (denied) return Errno::eacces;
  DenseBitset::for_each_and(label, snap.active_allow[op],
                            [&](std::size_t id) {
                              if (verdict != Errno::ok &&
                                  subject_matches(*rules[id], query))
                                verdict = Errno::ok;
                            });
  return verdict;  // guarded and not allowed in the current state: EACCES
}

Errno DfaRuleSet::decide(const Snapshot& snap, const AccessQuery& query) {
  const Program& prog = *snap.base;
  if (prog.dfa) {
    // One pass over the path; the accept mask is a reference into the DFA —
    // the whole decision is allocation-free.
    return decide(snap, query, prog.dfa->match(query.object_path));
  }
  auto label = prog.resolve(query.object_path);
  return decide(snap, query, *label);
}

Errno DfaRuleSet::check(const AccessQuery& query) const {
  // One snapshot for the whole decision: guard set and active masks are
  // mutually consistent, and stay alive until `snap` drops.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  return decide(*snap, query);
}

void DfaRuleSet::check_ops(std::span<const AccessQuery> queries,
                           std::span<Errno> verdicts) const {
  // One snapshot acquisition for the whole batch: every verdict is computed
  // on the same consistent activation, and the RcuPtr load is paid once.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  for (std::size_t i = 0; i < queries.size(); ++i)
    verdicts[i] = decide(*snap, queries[i]);
}

bool DfaRuleSet::guarded(std::string_view object_path) const {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const Program& prog = *snap->base;
  if (prog.dfa) return prog.dfa->match(object_path).any();
  for (const MacRule* rule : prog.rules) {
    if (rule->object.matches(object_path)) return true;
  }
  return false;
}

std::uint64_t DfaRuleSet::label_generation() const {
  return snapshot()->base->label_gen;
}

std::shared_ptr<const ObjectLabel> DfaRuleSet::resolve_label(
    std::string_view path) const {
  return snapshot()->base->resolve(path);
}

Errno DfaRuleSet::check_labeled(const AccessQuery& query,
                                const ObjectLabel& label,
                                std::uint64_t generation) const {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  // A label carries bit indices of the Program it was resolved under; if a
  // load() republished since, the numbering is stale — recompute on this
  // same snapshot instead of intersecting apples with oranges.
  if (snap->base->label_gen != generation) return decide(*snap, query);
  return decide(*snap, query, label);
}

std::size_t DfaRuleSet::total_rule_count() const {
  return snapshot()->base->rules.size();
}

std::size_t DfaRuleSet::active_rule_count() const {
  return snapshot()->active_list.size();
}

std::vector<const MacRule*> DfaRuleSet::active_rules() const {
  return snapshot()->active_list;
}

bool DfaRuleSet::table_driven() const {
  return snapshot()->base->dfa.has_value();
}

}  // namespace sack::core
