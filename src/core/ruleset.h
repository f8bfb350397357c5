// The rule engine for independent SACK enforcement.
//
// Independent SACK is deny-by-default over *guarded* objects: a path is
// guarded if any rule anywhere in the loaded policy names it. Access to a
// guarded path is allowed only by the rules mapped from the *current*
// situation state (State_Per ∘ Per_Rules, Algorithm 1's g(f(SS_current))).
// Unguarded paths are untouched — that check is the per-operation hot path,
// so it is one table walk over the path bytes.
//
// verify/reference.h transliterates the same decision naively; the
// differential oracle and the property tests hold this engine to it.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/mac_ops.h"
#include "core/policy.h"
#include "util/dense_bitset.h"
#include "util/glob_dfa.h"
#include "util/rcu_ptr.h"
#include "util/transparent_hash.h"

namespace sack::core {

// A fully-resolved access query.
struct AccessQuery {
  std::string_view subject_exe;   // task executable path
  std::string_view subject_profile;  // AppArmor profile, "" if none/unknown
  std::string_view object_path;
  MacOp op = MacOp::none;
};

// A pre-resolved object label: one bit per loaded rule whose object pattern
// matches the path. Everything about a decision that depends only on the
// loaded policy and the path — not on the active situation state — so a
// label survives activate() and is what the per-inode cache stores.
using ObjectLabel = DenseBitset;

// Table-driven rule set: the whole loaded rule inventory compiles into one
// GlobDfa whose accepting states carry per-rule bitmasks, so a miss-path
// decision is a single pass over the path bytes followed by mask
// intersections — no per-rule glob walk, at any rule count. Activation is a
// *mask swap*: the DFA (built once per load) never changes; activate() just
// publishes fresh per-op allow/deny rule-id masks, which makes transition
// storms cheap — a post-storm AVC miss re-runs the table walk (or skips even
// that via a cached inode label), not a rule-set walk.
//
// Read-mostly and concurrency-safe. Readers (`check`/`guarded`, every LSM
// hook) grab one atomically-published shared_ptr to an immutable Snapshot
// and work entirely off it. Writers (`load` on policy replacement,
// `activate` on situation transition) build a fresh Program (per load) or
// Snapshot (per activation) off the read path and publish it with a single
// swap — the RCU read-mostly pattern (see util/rcu_ptr.h for why the
// publication cell is hand-rolled rather than std::atomic<std::shared_ptr>).
// Readers mid-check keep the old snapshot alive through their shared_ptr.
// Writers are the control plane and are assumed serialized with respect to
// each other, as in the kernel.
//
// If the pattern set is pathological enough to blow the DFA construction
// budget, the Program keeps a per-rule scan fallback — decisions stay
// correct, only the speed claim degrades.
class DfaRuleSet {
 public:
  // `limits` bounds the DFA each load() builds; the default budget covers
  // every shipped policy. Tests pass a tiny budget to force the scan.
  explicit DfaRuleSet(GlobDfa::BuildLimits limits = {});
  // Non-copyable/movable: the snapshots hold raw pointers into the owned
  // policy copy; identity matters.
  DfaRuleSet(const DfaRuleSet&) = delete;
  DfaRuleSet& operator=(const DfaRuleSet&) = delete;

  // Loads the full policy's rule inventory (builds the guard set).
  // Transactional: on failure the previously published snapshot, activation,
  // and label generation are untouched — every decision is computed exactly
  // as before the attempt. Everything is built off to the side and published
  // only as the final step.
  Result<void> load(const SackPolicy& policy);

  // Activates the rules of exactly these permissions (APE, on transition).
  void activate(const std::vector<std::string>& permissions);

  // The decision: OK for unguarded objects, otherwise allow iff an active
  // allow rule matches and no active deny rule does.
  Errno check(const AccessQuery& query) const;

  // Batch decision: verdicts[i] = check(queries[i]), every verdict computed
  // on one snapshot. `verdicts.size()` must be >= `queries.size()`.
  void check_ops(std::span<const AccessQuery> queries,
                 std::span<Errno> verdicts) const;

  bool guarded(std::string_view object_path) const;

  // --- pre-resolved object labels (per-inode caching) ---
  // label_generation() identifies the rule numbering labels are valid for;
  // it changes on every load() and never on activate() (a label records
  // which *loaded* rules match, not which are active). Zero only before the
  // first successful load().
  std::uint64_t label_generation() const;
  // Resolves the label for a path. The result owns its storage — it stays
  // valid across load() without pinning the retired rule tables it was
  // computed from — but is only *meaningful* while label_generation() still
  // returns the value observed at resolve time.
  std::shared_ptr<const ObjectLabel> resolve_label(
      std::string_view path) const;
  // The decision given a pre-resolved label computed under `generation`.
  // Falls back to a full decision on the same snapshot when `generation` is
  // not the current label generation (the label's bit numbering is stale).
  Errno check_labeled(const AccessQuery& query, const ObjectLabel& label,
                      std::uint64_t generation) const;

  std::size_t total_rule_count() const;
  std::size_t active_rule_count() const;

  // Enumeration hook for analysis tooling (the verify subsystem's
  // differential oracle cross-checks this against State_Per ∘ Per_Rules):
  // the rules the current activation actually enforces, in no particular
  // order. Pointers stay valid until the next load().
  std::vector<const MacRule*> active_rules() const;

  // True when the loaded rules determinized within budget (the table path);
  // false on the scan fallback. Surfaced for tests and status reporting.
  bool table_driven() const;

 private:
  // Everything derived from one load(): the owning policy copy, the dense
  // rule numbering (bit i of every mask refers to rules[i]), the compiled
  // automaton, and the permission -> rule-id grouping. Immutable once built.
  struct Program {
    SackPolicy policy;  // owns the rules the pointers below point into
    std::vector<const MacRule*> rules;
    StringMap<std::vector<std::uint32_t>> by_permission;
    std::optional<GlobDfa> dfa;  // nullopt: scan fallback
    std::uint64_t label_gen = 0;

    // The activation-independent half of a decision. The returned label
    // owns its bits: callers park these on inodes for arbitrarily long, so
    // aliasing the Program here would let every stale inode label pin a
    // whole retired policy (DFA tables included) across loads.
    std::shared_ptr<const ObjectLabel> resolve(std::string_view path) const;
  };

  // One activation: per-op allow/deny masks over the Program's rule ids.
  struct Snapshot {
    std::shared_ptr<const Program> base;
    std::vector<ObjectLabel> active_allow;  // kMacOpCount masks
    std::vector<ObjectLabel> active_deny;
    std::vector<const MacRule*> active_list;
  };

  static std::shared_ptr<const Snapshot> make_snapshot(
      std::shared_ptr<const Program> base,
      const std::vector<std::string>& permissions);
  // The full decision on one pinned snapshot: resolve the path's label
  // (table walk, or the scan fallback), then decide on it.
  static Errno decide(const Snapshot& snap, const AccessQuery& query);
  static Errno decide(const Snapshot& snap, const AccessQuery& query,
                      const ObjectLabel& label);

  std::shared_ptr<const Snapshot> snapshot() const { return snap_.load(); }

  RcuPtr<const Snapshot> snap_;
  const GlobDfa::BuildLimits build_limits_;
};

}  // namespace sack::core
