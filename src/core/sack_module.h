// SackModule: the SACK security module (the paper's contribution).
//
// Two deployment modes, matching §III-E.3:
//
//  * SackMode::independent — SACK enforces its own MAC rules. The APE keeps
//    its rule engine (DfaRuleSet) activated for the current situation; LSM
//    hooks consult it. Guarded objects are deny-by-default (POLP), and a
//    situation transition re-activates the rule set and bumps the policy
//    generation so even already-open fds are re-validated (OAC: permissions
//    appear in emergencies and vanish when the emergency clears).
//
//  * SackMode::apparmor_enhanced — SACK does not mediate file access itself;
//    on every situation transition the APE injects/retracts origin-tagged
//    rules in the loaded AppArmor profiles, and AppArmor enforces as usual
//    ("the permission check process ... is the same as that for the original
//    AppArmor").
//
// SACKfs (on securityfs, §III-C):
//   /sys/kernel/security/SACK/events          write: situation events (SDS)
//   /sys/kernel/security/SACK/current_state   read:  name + encoding
//   /sys/kernel/security/SACK/status          read:  counters & mode
//   /sys/kernel/security/SACK/policy/load     write: full policy document
//   /sys/kernel/security/SACK/policy/{states,permissions,state_per,per_rules}
//                                             write: replace one section
//                                             read:  canonical section dump
//   /sys/kernel/security/SACK/metrics         read:  counters + per-stage
//                                                    latency percentiles
//   /sys/kernel/security/SACK/trace           read:  last-N trace records
//   /sys/kernel/security/SACK/trace_enable    read/write: toggle tracing
//   /sys/kernel/security/SACK/heartbeat       write: SDS liveness beacon
//                                             read:  watchdog status line
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "apparmor/apparmor.h"
#include "core/avc.h"
#include "core/policy.h"
#include "core/policy_checker.h"
#include "core/policy_parser.h"
#include "core/ruleset.h"
#include "core/ssm.h"
#include "core/trace.h"
#include "kernel/kernel.h"
#include "kernel/lsm/module.h"
#include "util/metrics.h"
#include "util/transparent_hash.h"

namespace sack::core {

enum class SackMode : std::uint8_t { independent, apparmor_enhanced };

class SackModule final : public kernel::SecurityModule {
 public:
  static constexpr std::string_view kName = "sack";
  static constexpr std::string_view kFsDir = "SACK";  // as in the paper

  explicit SackModule(SackMode mode);

  // Ablation hook: disable the per-file revalidation cache so every
  // file_permission check re-runs the full rule match (what a naive port
  // would do). Enabled by default.
  void set_revalidation_cache(bool enabled) { revalidate_cache_ = enabled; }
  // Ablation hook: disable the access vector cache so every check_op pays
  // the full rule walk. Enabled by default.
  void set_avc(bool enabled) { avc_enabled_ = enabled; }
  const AccessVectorCache& avc() const { return avc_; }
  ~SackModule() override;

  std::string_view name() const override { return kName; }
  void initialize(kernel::Kernel& kernel) override;

  SackMode mode() const { return mode_; }

  // Enhanced mode needs the AppArmor module to patch. Must be called before
  // the first policy load in apparmor_enhanced mode.
  void attach_apparmor(apparmor::AppArmorModule* apparmor) {
    apparmor_ = apparmor;
  }

  // --- policy (kernel-side API; SACKfs routes here) ---
  Result<void> load_policy(SackPolicy policy,
                           std::vector<Diagnostic>* diagnostics = nullptr);
  Result<void> load_policy_text(std::string_view text,
                                std::vector<Diagnostic>* diagnostics = nullptr,
                                std::vector<ParseError>* parse_errors = nullptr);
  // Per-section write (States / Permissions / State_Per / Per_Rules
  // interfaces): replaces the sections present in `text`, revalidates, and
  // re-applies. Incomplete intermediate policies are rejected atomically.
  Result<void> load_section_text(std::string_view text);

  bool policy_loaded() const { return loaded_; }
  const SackPolicy& policy() const { return policy_; }

  // --- situation events ---
  // Kernel-internal delivery (tests, SACKfs handler): runs the SSM and, on
  // transition, the APE.
  Result<SituationStateMachine::Outcome> deliver_event(
      std::string_view event_name);

  const SituationStateMachine* ssm() const {
    return ssm_ ? &*ssm_ : nullptr;
  }
  std::string current_state_name() const;

  // Situation fan-out: invoked with the new state's name after every SSM
  // transition (event, timeout, watchdog, resync) and once on policy load
  // with the initial state. This is how sibling LSMs that key policy off the
  // situation (the SFI module's overlays) track the SSM without polling.
  void set_transition_listener(std::function<void(std::string_view)> fn) {
    transition_listener_ = std::move(fn);
    if (loaded_ && ssm_ && transition_listener_)
      transition_listener_(ssm_->current_name());
  }

  // Active SACK permissions for the current situation state.
  std::vector<std::string> current_permissions() const;

  // Bumped on every policy load and on every situation transition that
  // changes the granted permission set (equivalent-state transitions keep
  // the generation, so caches stay warm).
  std::uint64_t policy_generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  std::uint64_t events_received() const { return events_received_; }
  std::uint64_t events_rejected() const { return events_rejected_; }
  // Stale-sequence replays (accepted no-ops; see the events-file protocol).
  std::uint64_t events_stale() const { return events_stale_; }

  // --- SDS liveness watchdog (policy `watchdog` clause) ---
  // Any events-file or heartbeat write counts as SDS activity. When the
  // policy declares a watchdog and no activity arrives within the deadline,
  // the next clock tick forces the SSM into the failsafe state and latches
  // resync_pending until the (restarted) SDS writes "resync" to the
  // heartbeat file.
  bool watchdog_enabled() const { return watchdog_deadline_ns_ > 0; }
  bool sds_alive() const { return sds_alive_; }
  bool resync_pending() const { return resync_pending_; }
  std::uint64_t watchdog_trips() const { return watchdog_trips_; }
  std::uint64_t resyncs() const { return resyncs_; }
  std::uint64_t heartbeats_received() const { return heartbeats_received_; }
  // Kernel-internal entry points (the SACKfs heartbeat file routes here).
  void note_sds_activity(SimTime now);
  Result<void> resync_from_sds();
  std::uint64_t denial_count() const {
    return denials_.load(std::memory_order_relaxed);
  }
  const DfaRuleSet& ruleset() const { return rules_; }

  // Batch enforcement: decides queries[i] for `task`, writing verdicts[i].
  // Fills each query's subject fields in place from the task (callers set
  // only object_path and op). The subject resolution, generation read, and
  // rule-set snapshot are amortized over the whole batch; per-query AVC
  // probe/insert and denial auditing match check_op exactly, and with
  // observability on, every query still yields one trace record and one
  // sample per stage histogram (stage costs divided evenly across the
  // batch, keeping sample counts and percentiles comparable with the hook
  // path). Two deliberate deviations from the equivalent hook sequence:
  // per-query latencies are amortized rather than individually timed, and
  // batch queries carry no inode, so the per-inode label fast path does not
  // apply — misses take the rule set's own batch walk instead.
  // `verdicts.size()` must be >= `queries.size()`.
  void check_ops(const kernel::Task& task, std::span<AccessQuery> queries,
                 std::span<Errno> verdicts);

  std::string status_text() const;

  // --- observability ---
  // One runtime toggle gates the whole layer: hook timing, per-stage
  // histograms, and the trace ring. Off (the default), every hook pays one
  // relaxed atomic load and nothing else — the Table II overhead guarantee.
  // Toggle programmatically here or via the SACKfs `trace_enable` file.
  bool observing() const { return trace_.enabled(); }
  void set_observe(bool on) { trace_.set_enabled(on); }
  const TraceRing& trace_ring() const { return trace_; }
  // Human-readable dump (the SACKfs `metrics` file content).
  std::string metrics_text() const;
  // Machine-readable per-stage percentiles; benches embed this verbatim.
  std::string metrics_json() const;
  // Clears histograms, observability counters, and the trace ring (not the
  // enforcement counters surfaced in status_text).
  void reset_metrics();

  // --- LSM hooks (independent mode enforcement) ---
  Errno file_open(kernel::Task& task, const std::string& path,
                  const kernel::Inode& inode,
                  kernel::AccessMask access) override;
  Errno file_permission(kernel::Task& task, const kernel::File& file,
                        kernel::AccessMask access) override;
  Errno file_ioctl(kernel::Task& task, const kernel::File& file,
                   std::uint32_t cmd) override;
  Errno mmap_file(kernel::Task& task, const kernel::File& file,
                  kernel::AccessMask prot) override;
  Errno path_mknod(kernel::Task& task, const std::string& path,
                   kernel::InodeType type) override;
  Errno path_unlink(kernel::Task& task, const std::string& path) override;
  Errno path_mkdir(kernel::Task& task, const std::string& path) override;
  Errno path_rmdir(kernel::Task& task, const std::string& path) override;
  Errno path_rename(kernel::Task& task, const std::string& old_path,
                    const std::string& new_path) override;
  Errno path_symlink(kernel::Task& task, const std::string& path,
                     const std::string& target) override;
  Errno path_link(kernel::Task& task, const std::string& old_path,
                  const std::string& new_path) override;
  Errno path_truncate(kernel::Task& task, const std::string& path) override;
  Errno path_chmod(kernel::Task& task, const std::string& path,
                   kernel::FileMode mode) override;
  Errno path_chown(kernel::Task& task, const std::string& path,
                   kernel::Uid uid, kernel::Gid gid) override;
  Errno inode_getattr(kernel::Task& task, const std::string& path) override;
  Errno bprm_check_security(kernel::Task& task,
                            const std::string& path) override;
  void clock_tick(SimTime now) override;
  // SACK's security context is the (global) situation state plus the
  // permissions it grants this task's subject identity.
  std::string getprocattr(const kernel::Task& task) override;

 private:
  // The Adaptive Policy Enforcer: maps the current situation state to
  // active MAC rules (independent) or AppArmor profile patches (enhanced).
  // `force` rebuilds even when the permission set is unchanged (policy
  // load); transitions pass false so self-loops and equivalent states skip
  // the rebuild, the generation bump, and the AVC flush.
  void apply_current_state(bool force = false);
  void retract_all_injected();

  // `inode`, when the hook has one, enables the pre-resolved label cache: an
  // AVC miss re-runs only the activation-dependent half of the decision
  // against the label cached on the inode instead of the full matcher walk.
  Errno check_op(const kernel::Task& task, std::string_view path, MacOp op,
                 const kernel::Inode* inode = nullptr);
  Errno check_access_mask(const kernel::Task& task, std::string_view path,
                          kernel::AccessMask access,
                          const kernel::Inode* inode = nullptr);
  void note_denial(const kernel::Task& task, std::string_view path, MacOp op);
  std::string_view profile_of(const kernel::Task& task) const;
  // Occupancy + entry accounting and the transition trace record, shared by
  // the event and timed transition paths. `prev_entered` is the virtual time
  // the old state was entered (captured before the SSM moved).
  void note_transition(StateId from, StateId to, SimTime prev_entered,
                       SimTime now, std::string_view via);
  int current_encoding_or(int fallback) const {
    return ssm_ ? ssm_->current_encoding() : fallback;
  }

  SackMode mode_;
  std::function<void(std::string_view)> transition_listener_;
  bool revalidate_cache_ = true;
  bool avc_enabled_ = true;
  DfaRuleSet rules_;
  AccessVectorCache avc_;
  SackPolicy policy_;
  bool loaded_ = false;
  std::optional<SituationStateMachine> ssm_;
  apparmor::AppArmorModule* apparmor_ = nullptr;
  kernel::Kernel* kernel_ = nullptr;

  void check_watchdog(SimTime now);
  // Stale-replay suppression: true if `seq` was already seen for `name`
  // (the delivery must become a no-op); otherwise records it.
  bool stale_event_seq(std::string_view name, std::uint64_t seq);

  std::atomic<std::uint64_t> generation_{1};
  std::uint64_t events_received_ = 0;
  std::uint64_t events_rejected_ = 0;
  std::uint64_t events_stale_ = 0;

  // --- watchdog state ---
  SimTime watchdog_deadline_ns_ = 0;  // 0 = no watchdog clause
  std::optional<StateId> failsafe_state_;
  SimTime last_sds_activity_ = 0;
  bool sds_alive_ = true;
  bool resync_pending_ = false;
  std::uint64_t watchdog_trips_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t heartbeats_received_ = 0;
  // Highest sequence number delivered per event name ("seq=<n> <event>"
  // lines); cleared on policy load and on resync (the SDS restarts at 1).
  StringMap<std::uint64_t> event_seq_;
  std::atomic<std::uint64_t> denials_{0};
  std::set<std::string> injected_perms_;
  // Permission set (sorted) the APE last applied; equality means a
  // transition is enforcement-neutral and can skip the rebuild.
  std::vector<std::string> applied_perms_;
  bool applied_valid_ = false;

  // --- observability state (tentpole: hook-path tracing + metrics) ---
  TraceRing trace_{TraceRing::kDefaultCapacity};
  struct PipelineMetrics {
    // check_op end-to-end, split into the AVC probe and (on miss) the
    // matcher walk — the per-hook attribution Table II cannot give.
    util::LatencyHistogram hook_total_ns;
    util::LatencyHistogram avc_probe_ns;
    util::LatencyHistogram matcher_walk_ns;
    // deliver_event entry -> enforcement applied (the event->APE latency).
    util::LatencyHistogram event_to_enforce_ns;
    // One APE application (rule activation or AppArmor reconcile).
    util::LatencyHistogram apply_state_ns;
    util::Counter events_accepted;
    util::Counter aa_rulesets_injected;
    util::Counter aa_rulesets_retracted;
  };
  PipelineMetrics metrics_;
  // Per-state SSM statistics, indexed by StateId; rebuilt on policy load.
  struct StateStats {
    util::Counter entries;
    util::Counter occupied_ns;  // virtual ns spent before each exit
  };
  std::unique_ptr<StateStats[]> state_stats_;
  std::size_t state_stats_count_ = 0;

  class EventsFile;
  class HeartbeatFile;
  class CurrentStateFile;
  class StatusFile;
  class PolicyLoadFile;
  class PolicyValidateFile;
  class SectionFile;
  class MetricsFile;
  class TraceFile;
  class TraceEnableFile;
  std::vector<std::unique_ptr<kernel::VirtualFileOps>> fs_files_;
  std::string last_validation_report_ = "(nothing validated yet)\n";
};

}  // namespace sack::core
