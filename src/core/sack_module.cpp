#include "core/sack_module.h"

#include <algorithm>
#include <cstdio>

#include "util/fault.h"
#include "util/log.h"
#include "util/strings.h"

namespace sack::core {

using kernel::AccessMask;
using kernel::Capability;
using kernel::Task;

namespace {

// MacOp -> AppArmor file-permission letters, for enhanced-mode injection.
apparmor::FilePerm apparmor_perms_for(MacOp ops) {
  using apparmor::FilePerm;
  FilePerm p = FilePerm::none;
  if (has_any(ops, MacOp::read | MacOp::getattr)) p |= FilePerm::read;
  if (has_any(ops, MacOp::write | MacOp::create | MacOp::unlink |
                       MacOp::mkdir | MacOp::rmdir | MacOp::rename |
                       MacOp::chmod | MacOp::chown | MacOp::truncate))
    p |= FilePerm::write;
  if (has_any(ops, MacOp::append)) p |= FilePerm::append;
  if (has_any(ops, MacOp::exec)) p |= FilePerm::exec;
  if (has_any(ops, MacOp::ioctl)) p |= FilePerm::ioctl;
  if (has_any(ops, MacOp::mmap)) p |= FilePerm::mmap;
  // 'w' and 'a' cannot coexist in one AppArmor rule; write subsumes append.
  if (has_all(p, FilePerm::write | FilePerm::append)) p &= ~FilePerm::append;
  return p;
}

}  // namespace

// --- SACKfs files ---

class SackModule::EventsFile final : public kernel::VirtualFileOps {
 public:
  explicit EventsFile(SackModule* mod) : mod_(mod) {}
  Result<void> write_content(Task&, std::string_view data) override {
    // One event per line; empty lines ignored. The handler runs inside the
    // write(2) path — this synchronous dispatch is SACK's low-latency
    // transmission channel.
    //
    // A line may carry a sequence stamp: "seq=<n> <event>". The kernel keeps
    // the highest delivered sequence per event name; a replay (seq <= that)
    // is accepted as a no-op — the SDS retry path can safely re-send a write
    // whose success report was lost without double-transitioning the SSM.
    // Unstamped lines bypass the check (back-compat; the raw emulation
    // channel used by the case studies).
    //
    // Partial-write semantics: every valid line is delivered, and the write
    // succeeds if *any* line was accepted — a batch with one typo must not
    // be reported to the SDS as a total failure (it would retry events that
    // already took effect). Rejected lines are visible individually through
    // events_rejected in status/metrics; only an all-bad write is EINVAL.
    mod_->note_sds_activity(mod_->kernel_ ? mod_->kernel_->clock().now() : 0);
    std::size_t accepted = 0, rejected = 0;
    for (auto line : split(data, '\n')) {
      auto name = trim(line);
      if (name.empty()) continue;
      std::uint64_t seq = 0;
      bool stamped = false;
      if (name.starts_with("seq=")) {
        auto rest = name.substr(4);
        std::size_t i = 0;
        while (i < rest.size() && rest[i] >= '0' && rest[i] <= '9') {
          seq = seq * 10 + static_cast<std::uint64_t>(rest[i] - '0');
          ++i;
        }
        if (i == 0 || i >= rest.size() || rest[i] != ' ') {
          ++rejected;
          ++mod_->events_rejected_;
          continue;
        }
        name = trim(rest.substr(i));
        stamped = true;
      }
      if (stamped && mod_->stale_event_seq(name, seq)) {
        ++accepted;  // replay of an already-delivered event: success, no-op
        continue;
      }
      if (mod_->deliver_event(name).ok())
        ++accepted;
      else
        ++rejected;
    }
    if (rejected > 0 && accepted == 0) return Errno::einval;
    return {};
  }

 private:
  SackModule* mod_;
};

// The SDS liveness beacon. The SDS writes one line per frame ("alive"), and
// "resync" after a restart when the kernel reports resync_pending — the
// recovery handshake that re-converges the SSM (force to initial, then the
// SDS replays its detector consensus). Reading returns the watchdog status
// the SDS polls to learn it must resync. Mode 0600: only root's SDS may
// claim liveness.
class SackModule::HeartbeatFile final : public kernel::VirtualFileOps {
 public:
  explicit HeartbeatFile(SackModule* mod) : mod_(mod) {}

  Result<std::string> read_content(Task&) override {
    std::string out = "sds_alive=";
    out += mod_->sds_alive_ ? "1" : "0";
    out += " resync_pending=";
    out += mod_->resync_pending_ ? "1" : "0";
    out += " deadline_ms=" +
           std::to_string(mod_->watchdog_deadline_ns_ / 1'000'000);
    out += " trips=" + std::to_string(mod_->watchdog_trips_) + "\n";
    return out;
  }

  Result<void> write_content(Task&, std::string_view data) override {
    const SimTime now = mod_->kernel_ ? mod_->kernel_->clock().now() : 0;
    auto word = trim(data);
    if (word.empty() || word == "alive" || word == "ping") {
      ++mod_->heartbeats_received_;
      mod_->note_sds_activity(now);
      return {};
    }
    if (word == "resync") return mod_->resync_from_sds();
    return Errno::einval;
  }

 private:
  SackModule* mod_;
};

class SackModule::CurrentStateFile final : public kernel::VirtualFileOps {
 public:
  explicit CurrentStateFile(SackModule* mod) : mod_(mod) {}
  Result<std::string> read_content(Task&) override {
    if (!mod_->ssm_) return std::string("(no policy)\n");
    return mod_->ssm_->current_name() + " " +
           std::to_string(mod_->ssm_->current_encoding()) + "\n";
  }

 private:
  SackModule* mod_;
};

class SackModule::StatusFile final : public kernel::VirtualFileOps {
 public:
  explicit StatusFile(SackModule* mod) : mod_(mod) {}
  Result<std::string> read_content(Task&) override {
    return mod_->status_text();
  }

 private:
  SackModule* mod_;
};

class SackModule::PolicyLoadFile final : public kernel::VirtualFileOps {
 public:
  explicit PolicyLoadFile(SackModule* mod) : mod_(mod) {}
  Result<void> write_content(Task& task, std::string_view data) override {
    if (mod_->kernel_->capable(task, Capability::mac_admin) != Errno::ok)
      return Errno::eperm;
    std::vector<Diagnostic> diags;
    std::vector<ParseError> perrs;
    auto rc = mod_->load_policy_text(data, &diags, &perrs);
    if (!rc.ok()) {
      for (const auto& e : perrs)
        log_warn("sack: policy parse error: ", e.to_string());
      for (const auto& d : diags)
        log_warn("sack: policy check: ", d.to_string());
    }
    return rc;
  }

 private:
  SackModule* mod_;
};

// Dry-run validation: write a candidate policy, read back the full
// diagnostic report. Never touches the loaded policy — the administrator's
// pre-flight check (the user-space policy_lint tool runs the same checker).
class SackModule::PolicyValidateFile final : public kernel::VirtualFileOps {
 public:
  explicit PolicyValidateFile(SackModule* mod) : mod_(mod) {}

  Result<std::string> read_content(Task&) override {
    return mod_->last_validation_report_;
  }

  Result<void> write_content(Task& task, std::string_view data) override {
    if (mod_->kernel_->capable(task, Capability::mac_admin) != Errno::ok)
      return Errno::eperm;
    std::string report;
    auto parsed = parse_policy(data);
    for (const auto& e : parsed.errors)
      report += "syntax error: " + e.to_string() + "\n";
    auto diags = check_policy(parsed.policy,
                              mod_->mode_ == SackMode::independent
                                  ? CheckMode::independent
                                  : CheckMode::apparmor_enhanced);
    for (const auto& d : diags) report += d.to_string() + "\n";
    bool loadable = parsed.ok() && !has_errors(diags);
    report += std::string("verdict: ") +
              (loadable ? "loadable" : "REJECTED") + "\n";
    mod_->last_validation_report_ = std::move(report);
    // The write itself reports the verdict too.
    return loadable ? Result<void>() : Result<void>(Errno::einval);
  }

 private:
  SackModule* mod_;
};

// One per section interface (Table I). Reading dumps the canonical section;
// writing replaces it (atomically: a rejected policy leaves the old one).
class SackModule::SectionFile final : public kernel::VirtualFileOps {
 public:
  enum class Which { states, watchdog, permissions, state_per, per_rules };
  SectionFile(SackModule* mod, Which which) : mod_(mod), which_(which) {}

  Result<std::string> read_content(Task&) override {
    switch (which_) {
      case Which::states: return mod_->policy_.states_text();
      case Which::watchdog: return mod_->policy_.watchdog_text();
      case Which::permissions: return mod_->policy_.permissions_text();
      case Which::state_per: return mod_->policy_.state_per_text();
      case Which::per_rules: return mod_->policy_.per_rules_text();
    }
    return Errno::einval;
  }

  Result<void> write_content(Task& task, std::string_view data) override {
    if (mod_->kernel_->capable(task, Capability::mac_admin) != Errno::ok)
      return Errno::eperm;
    return mod_->load_section_text(data);
  }

 private:
  SackModule* mod_;
  Which which_;
};

class SackModule::MetricsFile final : public kernel::VirtualFileOps {
 public:
  explicit MetricsFile(SackModule* mod) : mod_(mod) {}
  Result<std::string> read_content(Task&) override {
    return mod_->metrics_text();
  }

 private:
  SackModule* mod_;
};

class SackModule::TraceFile final : public kernel::VirtualFileOps {
 public:
  static constexpr std::size_t kReadBack = 256;  // last N records per read
  explicit TraceFile(SackModule* mod) : mod_(mod) {}
  Result<std::string> read_content(Task&) override {
    const auto& ring = mod_->trace_;
    std::string out = "# trace enabled=" +
                      std::string(ring.enabled() ? "1" : "0") +
                      " recorded=" + std::to_string(ring.recorded()) +
                      " dropped=" + std::to_string(ring.dropped()) +
                      " capacity=" + std::to_string(ring.capacity()) + "\n";
    for (const auto& r : ring.snapshot(kReadBack)) out += r.to_line();
    return out;
  }

 private:
  SackModule* mod_;
};

// Runtime toggle: "1"/"on" enables tracing + hook timing, "0"/"off"
// disables. Toggling off leaves the collected data readable; writing
// "clear" resets histograms and the ring.
class SackModule::TraceEnableFile final : public kernel::VirtualFileOps {
 public:
  explicit TraceEnableFile(SackModule* mod) : mod_(mod) {}
  Result<std::string> read_content(Task&) override {
    return std::string(mod_->observing() ? "1\n" : "0\n");
  }
  Result<void> write_content(Task& task, std::string_view data) override {
    if (mod_->kernel_->capable(task, Capability::mac_admin) != Errno::ok)
      return Errno::eperm;
    auto word = trim(data);
    if (word == "1" || word == "on") {
      mod_->set_observe(true);
    } else if (word == "0" || word == "off") {
      mod_->set_observe(false);
    } else if (word == "clear") {
      mod_->reset_metrics();
    } else {
      return Errno::einval;
    }
    return {};
  }

 private:
  SackModule* mod_;
};

// --- module ---

SackModule::SackModule(SackMode mode) : mode_(mode) {}

SackModule::~SackModule() = default;

void SackModule::initialize(kernel::Kernel& kernel) {
  kernel_ = &kernel;
  auto& fs = kernel.securityfs();
  auto dir = std::string(kFsDir);

  auto add = [&](std::string path, std::unique_ptr<kernel::VirtualFileOps> f,
                 kernel::FileMode mode) {
    (void)fs.register_file(path, f.get(), mode);
    fs_files_.push_back(std::move(f));
  };
  add(dir + "/events", std::make_unique<EventsFile>(this), 0200);
  add(dir + "/heartbeat", std::make_unique<HeartbeatFile>(this), 0600);
  add(dir + "/current_state", std::make_unique<CurrentStateFile>(this), 0444);
  add(dir + "/status", std::make_unique<StatusFile>(this), 0444);
  add(dir + "/policy/load", std::make_unique<PolicyLoadFile>(this), 0200);
  add(dir + "/policy/validate", std::make_unique<PolicyValidateFile>(this),
      0600);
  add(dir + "/policy/states",
      std::make_unique<SectionFile>(this, SectionFile::Which::states), 0600);
  add(dir + "/policy/watchdog",
      std::make_unique<SectionFile>(this, SectionFile::Which::watchdog), 0600);
  add(dir + "/policy/permissions",
      std::make_unique<SectionFile>(this, SectionFile::Which::permissions),
      0600);
  add(dir + "/policy/state_per",
      std::make_unique<SectionFile>(this, SectionFile::Which::state_per),
      0600);
  add(dir + "/policy/per_rules",
      std::make_unique<SectionFile>(this, SectionFile::Which::per_rules),
      0600);
  add(dir + "/metrics", std::make_unique<MetricsFile>(this), 0444);
  add(dir + "/trace", std::make_unique<TraceFile>(this), 0600);
  add(dir + "/trace_enable", std::make_unique<TraceEnableFile>(this), 0600);
}

Result<void> SackModule::load_policy(SackPolicy policy,
                                     std::vector<Diagnostic>* diagnostics) {
  // Chaos site: a reload that fails here must leave the running policy, the
  // SSM, and the liveness state untouched (reload is all-or-nothing).
  if (auto injected = util::FaultInjector::instance().fail_errno(
          "sack.policy.reload"))
    return *injected;
  auto diags = check_policy(policy, mode_ == SackMode::independent
                                        ? CheckMode::independent
                                        : CheckMode::apparmor_enhanced);
  if (diagnostics) *diagnostics = diags;
  if (has_errors(diags)) return Errno::einval;
  if (mode_ == SackMode::apparmor_enhanced && !apparmor_) return Errno::einval;

  auto ssm = SituationStateMachine::build(policy);
  if (!ssm.ok()) return ssm.error();

  // Last fallible step: compile the rule inventory. The rule set itself is
  // transactional (it publishes only as its final step), so a failure here —
  // an injected build fault — leaves the previous program, its label
  // generation, the AVC, and every cached inode label exactly as they were:
  // zero decisions change.
  if (auto compiled = rules_.load(policy); !compiled.ok())
    return compiled.error();

  // Commit point: retract what the old policy injected, swap, re-apply.
  retract_all_injected();
  policy_ = std::move(policy);
  ssm_ = std::move(ssm).value();
  // Fresh per-state occupancy/entry stats: state ids are policy-relative.
  state_stats_count_ = ssm_->state_count();
  state_stats_ = std::make_unique<StateStats[]>(state_stats_count_);
  // Fresh liveness contract: the new policy defines (or drops) the watchdog,
  // and the reload itself proves an administrator is alive — restart the
  // deadline clock instead of tripping on stale pre-reload silence. Sequence
  // history is policy-relative (the SDS restarts its counters on reload).
  watchdog_deadline_ns_ = 0;
  failsafe_state_.reset();
  if (policy_.watchdog) {
    watchdog_deadline_ns_ = policy_.watchdog->deadline_ms * 1'000'000;
    auto id = ssm_->state_id(policy_.watchdog->failsafe_state);
    if (id.ok()) failsafe_state_ = *id;  // checker guarantees this
  }
  last_sds_activity_ = kernel_ ? kernel_->clock().now() : 0;
  sds_alive_ = true;
  resync_pending_ = false;
  event_seq_.clear();
  loaded_ = true;
  apply_current_state(/*force=*/true);
  if (transition_listener_) transition_listener_(ssm_->current_name());
  log_info("sack: policy loaded: ", policy_.states.size(), " states, ",
           policy_.permissions.size(), " permissions, ",
           rules_.total_rule_count(), " MAC rules, initial state '",
           ssm_->current_name(), "'");
  return {};
}

Result<void> SackModule::load_policy_text(
    std::string_view text, std::vector<Diagnostic>* diagnostics,
    std::vector<ParseError>* parse_errors) {
  auto parsed = parse_policy(text);
  if (parse_errors) *parse_errors = parsed.errors;
  if (!parsed.ok()) return Errno::einval;
  return load_policy(std::move(parsed.policy), diagnostics);
}

Result<void> SackModule::load_section_text(std::string_view text) {
  SectionPresence presence;
  auto parsed = parse_policy(text, &presence);
  if (!parsed.ok()) return Errno::einval;
  SackPolicy merged = policy_;
  merge_policy_sections(merged, parsed.policy, presence);
  return load_policy(std::move(merged));
}

Result<SituationStateMachine::Outcome> SackModule::deliver_event(
    std::string_view event_name) {
  ++events_received_;
  const bool obs = observing();
  const std::uint64_t t_start = obs ? monotonic_ns() : 0;
  if (!ssm_) {
    ++events_rejected_;
    return Errno::einval;
  }
  const SimTime now = kernel_ ? kernel_->clock().now() : 0;
  const SimTime prev_entered = ssm_->entered_current_at();
  auto outcome = ssm_->deliver(event_name, now);
  if (!outcome.ok()) {
    ++events_rejected_;
    log_warn("sack: unknown situation event '", event_name, "'");
    if (obs) {
      TraceRecord tr;
      tr.time = now;
      tr.hook = TraceHook::event;
      tr.verdict = Errno::einval;
      tr.state_encoding = current_encoding_or(-1);
      tr.subject = std::string(event_name);
      tr.latency_ns = monotonic_ns() - t_start;
      trace_.append(std::move(tr));
    }
    return outcome.error();
  }
  metrics_.events_accepted.inc();
  if (outcome->transitioned) {
    log_info("sack: situation transition '",
             ssm_->state_name(outcome->from), "' -> '",
             ssm_->state_name(outcome->to), "' on event '", event_name, "'");
    if (kernel_) {
      // Situation transitions are security-relevant: audit them like the
      // permission changes they are.
      kernel::AuditRecord record;
      record.time = now;
      record.module = std::string(kName);
      record.subject = ssm_->state_name(outcome->from);
      record.object = ssm_->state_name(outcome->to);
      record.operation = "transition:" + std::string(event_name);
      record.verdict = kernel::AuditVerdict::allowed;
      kernel_->audit().record(std::move(record));
    }
    note_transition(outcome->from, outcome->to, prev_entered, now,
                    event_name);
    apply_current_state();
  }
  if (obs) {
    // Event->enforcement latency: from SACKfs write entry to the APE having
    // applied the (possibly unchanged) state.
    const std::uint64_t elapsed = monotonic_ns() - t_start;
    metrics_.event_to_enforce_ns.record(elapsed);
    TraceRecord tr;
    tr.time = now;
    tr.hook = TraceHook::event;
    tr.state_encoding = current_encoding_or(-1);
    tr.subject = std::string(event_name);
    tr.latency_ns = elapsed;
    trace_.append(std::move(tr));
  }
  return outcome;
}

void SackModule::note_transition(StateId from, StateId to,
                                 SimTime prev_entered, SimTime now,
                                 std::string_view via) {
  if (state_stats_ && ssm_) {
    const auto from_i = static_cast<std::size_t>(from.get());
    const auto to_i = static_cast<std::size_t>(to.get());
    if (from_i < state_stats_count_ && now >= prev_entered)
      state_stats_[from_i].occupied_ns.inc(
          static_cast<std::uint64_t>(now - prev_entered));
    if (to_i < state_stats_count_) state_stats_[to_i].entries.inc();
  }
  if (observing() && ssm_) {
    TraceRecord tr;
    tr.time = now;
    tr.hook = TraceHook::transition;
    tr.state_encoding = ssm_->encoding(to);
    tr.subject = ssm_->state_name(from) + " -> " + ssm_->state_name(to);
    tr.object = std::string(via);
    trace_.append(std::move(tr));
  }
  if (transition_listener_ && ssm_)
    transition_listener_(ssm_->state_name(to));
}

std::string SackModule::current_state_name() const {
  return ssm_ ? ssm_->current_name() : std::string{};
}

std::vector<std::string> SackModule::current_permissions() const {
  if (!ssm_) return {};
  return policy_.permissions_of(ssm_->current_name());
}

void SackModule::retract_all_injected() {
  if (mode_ != SackMode::apparmor_enhanced || !apparmor_) return;
  for (const auto& perm : injected_perms_) {
    apparmor_->remove_rules_by_origin("sack:" + perm);
    metrics_.aa_rulesets_retracted.inc();
  }
  injected_perms_.clear();
}

void SackModule::apply_current_state(bool force) {
  const bool obs = observing();
  const std::uint64_t t_start = obs ? monotonic_ns() : 0;
  struct ApeTimer {
    SackModule* mod;
    bool obs;
    std::uint64_t t_start;
    ~ApeTimer() {
      if (!obs) return;
      const std::uint64_t elapsed = monotonic_ns() - t_start;
      mod->metrics_.apply_state_ns.record(elapsed);
      TraceRecord tr;
      tr.time = mod->kernel_ ? mod->kernel_->clock().now() : 0;
      tr.hook = TraceHook::apply_state;
      tr.state_encoding = mod->current_encoding_or(-1);
      tr.latency_ns = elapsed;
      mod->trace_.append(std::move(tr));
    }
  } ape_timer{this, obs, t_start};

  auto perms = current_permissions();

  // Enforcement-neutral transitions (self-loops, equivalent states) keep the
  // same permission set: skip the index rebuild, the generation bump, and
  // the AVC flush — open-fd verdicts and cached decisions stay warm.
  std::vector<std::string> sorted = perms;
  std::sort(sorted.begin(), sorted.end());
  if (!force && applied_valid_ && sorted == applied_perms_) return;
  applied_perms_ = std::move(sorted);
  applied_valid_ = true;

  if (mode_ == SackMode::independent) {
    // Ordering matters for cache correctness under concurrent enforcement:
    // 1. publish the new rule snapshot (readers switch atomically),
    // 2. bump the generation with release semantics — any reader that
    //    observes the new generation also observes the new snapshot, so a
    //    verdict stamped with the new generation was computed on it,
    // 3. flush the AVC. Entries inserted before the flush are gone; a racing
    //    insert computed on the old snapshot carries the old generation
    //    stamp and can never be served after the bump.
    rules_.activate(perms);
    generation_.fetch_add(1, std::memory_order_release);
    avc_.invalidate_all();
    return;
  }
  generation_.fetch_add(1, std::memory_order_release);

  // SACK-enhanced AppArmor: reconcile injected rules with the new state.
  std::set<std::string> target(perms.begin(), perms.end());
  for (auto it = injected_perms_.begin(); it != injected_perms_.end();) {
    if (!target.contains(*it)) {
      apparmor_->remove_rules_by_origin("sack:" + *it);
      metrics_.aa_rulesets_retracted.inc();
      it = injected_perms_.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& perm : target) {
    if (injected_perms_.contains(perm)) continue;
    auto rules_it = policy_.per_rules.find(perm);
    if (rules_it == policy_.per_rules.end()) continue;
    // Group this permission's rules by target profile.
    std::map<std::string, std::vector<apparmor::FileRule>> by_profile;
    for (const MacRule& rule : rules_it->second) {
      if (rule.subject_kind != SubjectKind::profile) continue;
      apparmor::FileRule fr;
      fr.pattern = rule.object;
      fr.perms = apparmor_perms_for(rule.ops);
      fr.deny = rule.effect == RuleEffect::deny;
      fr.origin = "sack:" + perm;
      by_profile[rule.subject_text].push_back(std::move(fr));
    }
    for (auto& [profile, frs] : by_profile) {
      auto rc = apparmor_->inject_rules(profile, std::move(frs));
      if (!rc.ok())
        log_warn("sack: cannot inject rules for permission '", perm,
                 "': AppArmor profile '", profile, "' not loaded");
    }
    metrics_.aa_rulesets_injected.inc();
    injected_perms_.insert(perm);
  }
}

std::string SackModule::status_text() const {
  std::string out;
  out += "mode: ";
  out += mode_ == SackMode::independent ? "independent" : "apparmor_enhanced";
  out += "\npolicy_loaded: ";
  out += loaded_ ? "yes" : "no";
  out += "\ncurrent_state: " + current_state_name();
  if (ssm_) {
    out += "\nstates: " + std::to_string(ssm_->state_count());
    out += "\nevents_delivered: " + std::to_string(ssm_->events_delivered());
    out += "\ntransitions_taken: " + std::to_string(ssm_->transitions_taken());
  }
  out += "\nevents_received: " + std::to_string(events_received_);
  out += "\nevents_rejected: " + std::to_string(events_rejected_);
  out += "\nevents_stale: " + std::to_string(events_stale_);
  out += "\nwatchdog_deadline_ms: " +
         std::to_string(watchdog_deadline_ns_ / 1'000'000);
  out += "\nsds_alive: ";
  out += sds_alive_ ? "1" : "0";
  out += "\nresync_pending: ";
  out += resync_pending_ ? "1" : "0";
  out += "\nwatchdog_trips: " + std::to_string(watchdog_trips_);
  out += "\nresyncs: " + std::to_string(resyncs_);
  out += "\nheartbeats_received: " + std::to_string(heartbeats_received_);
  out += "\ngeneration: " + std::to_string(policy_generation());
  out += "\ntotal_rules: " + std::to_string(rules_.total_rule_count());
  out += "\nactive_rules: " + std::to_string(rules_.active_rule_count());
  out += "\ndenials: " + std::to_string(denial_count());
  const auto avc = avc_.stats();
  out += "\navc_enabled: ";
  out += avc_enabled_ ? "yes" : "no";
  out += "\navc_hits: " + std::to_string(avc.hits);
  out += "\navc_misses: " + std::to_string(avc.misses);
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.3f", avc.hit_rate());
  out += "\navc_hit_rate: ";
  out += rate;
  out += "\navc_entries: " + std::to_string(avc.entries) + "/" +
         std::to_string(avc.capacity);
  out += "\navc_evictions: " + std::to_string(avc.evictions);
  out += "\navc_invalidations: " + std::to_string(avc.invalidations);
  out += "\n";
  return out;
}

std::string SackModule::metrics_text() const {
  const auto avc = avc_.stats();
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.3f", avc.hit_rate());
  std::string out = "# SACK pipeline metrics\n";
  out += "observe: ";
  out += observing() ? "on" : "off";
  out += "\nchecks: " + std::to_string(avc.hits + avc.misses);
  out += "\ndenials: " + std::to_string(denial_count());
  out += "\navc_hits: " + std::to_string(avc.hits);
  out += "\navc_misses: " + std::to_string(avc.misses);
  out += "\navc_hit_rate: ";
  out += rate;
  out += "\nhook_total_ns: " + metrics_.hook_total_ns.summary();
  out += "\navc_probe_ns: " + metrics_.avc_probe_ns.summary();
  out += "\nmatcher_walk_ns: " + metrics_.matcher_walk_ns.summary();
  out += "\nevent_to_enforce_ns: " + metrics_.event_to_enforce_ns.summary();
  out += "\napply_state_ns: " + metrics_.apply_state_ns.summary();
  out += "\nevents_received: " + std::to_string(events_received_);
  out += "\nevents_accepted: " +
         std::to_string(metrics_.events_accepted.value());
  out += "\nevents_rejected: " + std::to_string(events_rejected_);
  if (ssm_) {
    out += "\ntransitions_taken: " +
           std::to_string(ssm_->transitions_taken());
    out += "\ninvalid_event_ids: " +
           std::to_string(ssm_->events_invalid());
  }
  out += "\nevents_stale: " + std::to_string(events_stale_);
  out += "\nwatchdog_deadline_ms: " +
         std::to_string(watchdog_deadline_ns_ / 1'000'000);
  out += "\nsds_alive: ";
  out += sds_alive_ ? "1" : "0";
  out += "\nwatchdog_trips: " + std::to_string(watchdog_trips_);
  out += "\nresyncs: " + std::to_string(resyncs_);
  out += "\nheartbeats_received: " + std::to_string(heartbeats_received_);
  out += "\naa_rulesets_injected: " +
         std::to_string(metrics_.aa_rulesets_injected.value());
  out += "\naa_rulesets_retracted: " +
         std::to_string(metrics_.aa_rulesets_retracted.value());
  if (ssm_ && state_stats_) {
    out += "\nstate_occupancy:";
    for (std::size_t i = 0; i < state_stats_count_; ++i) {
      out += "\n  " + ssm_->state_name(StateId(
                          static_cast<StateId::rep_type>(i))) +
             ": entries=" + std::to_string(state_stats_[i].entries.value()) +
             " occupied_ns=" +
             std::to_string(state_stats_[i].occupied_ns.value());
    }
  }
  out += "\ntrace_enabled: ";
  out += trace_.enabled() ? "1" : "0";
  out += "\ntrace_recorded: " + std::to_string(trace_.recorded());
  out += "\ntrace_dropped: " + std::to_string(trace_.dropped());
  out += "\n";
  return out;
}

std::string SackModule::metrics_json() const {
  const auto avc = avc_.stats();
  std::string out = "{";
  out += "\"checks\": " + std::to_string(avc.hits + avc.misses);
  out += ", \"denials\": " + std::to_string(denial_count());
  out += ", \"avc_hits\": " + std::to_string(avc.hits);
  out += ", \"avc_misses\": " + std::to_string(avc.misses);
  char rate[32];
  std::snprintf(rate, sizeof(rate), "%.4f", avc.hit_rate());
  out += ", \"avc_hit_rate\": ";
  out += rate;
  out += ", \"hook_total_ns\": " + metrics_.hook_total_ns.json();
  out += ", \"avc_probe_ns\": " + metrics_.avc_probe_ns.json();
  out += ", \"matcher_walk_ns\": " + metrics_.matcher_walk_ns.json();
  out += ", \"event_to_enforce_ns\": " +
         metrics_.event_to_enforce_ns.json();
  out += ", \"apply_state_ns\": " + metrics_.apply_state_ns.json();
  out += ", \"events\": {\"received\": " + std::to_string(events_received_) +
         ", \"accepted\": " +
         std::to_string(metrics_.events_accepted.value()) +
         ", \"rejected\": " + std::to_string(events_rejected_) +
         ", \"stale\": " + std::to_string(events_stale_) + "}";
  out += ", \"watchdog\": {\"deadline_ms\": " +
         std::to_string(watchdog_deadline_ns_ / 1'000'000) +
         ", \"sds_alive\": " + (sds_alive_ ? "true" : "false") +
         ", \"trips\": " + std::to_string(watchdog_trips_) +
         ", \"resyncs\": " + std::to_string(resyncs_) +
         ", \"heartbeats\": " + std::to_string(heartbeats_received_) + "}";
  out += ", \"aa_rulesets\": {\"injected\": " +
         std::to_string(metrics_.aa_rulesets_injected.value()) +
         ", \"retracted\": " +
         std::to_string(metrics_.aa_rulesets_retracted.value()) + "}";
  if (ssm_ && state_stats_) {
    out += ", \"states\": [";
    for (std::size_t i = 0; i < state_stats_count_; ++i) {
      if (i) out += ", ";
      out += "{\"name\": \"" +
             ssm_->state_name(StateId(static_cast<StateId::rep_type>(i))) +
             "\", \"entries\": " +
             std::to_string(state_stats_[i].entries.value()) +
             ", \"occupied_ns\": " +
             std::to_string(state_stats_[i].occupied_ns.value()) + "}";
    }
    out += "]";
  }
  out += ", \"trace\": {\"enabled\": ";
  out += trace_.enabled() ? "true" : "false";
  out += ", \"recorded\": " + std::to_string(trace_.recorded()) +
         ", \"dropped\": " + std::to_string(trace_.dropped()) + "}";
  out += "}";
  return out;
}

void SackModule::reset_metrics() {
  metrics_.hook_total_ns.reset();
  metrics_.avc_probe_ns.reset();
  metrics_.matcher_walk_ns.reset();
  metrics_.event_to_enforce_ns.reset();
  metrics_.apply_state_ns.reset();
  trace_.clear();
}

// --- independent-mode enforcement ---

std::string_view SackModule::profile_of(const Task& task) const {
  if (!apparmor_) return {};
  auto ref = task.security_blob<std::string>(
      std::string(apparmor::AppArmorModule::kName));
  return ref ? std::string_view(*ref) : std::string_view{};
}

void SackModule::note_denial(const Task& task, std::string_view path,
                             MacOp op) {
  denials_.fetch_add(1, std::memory_order_relaxed);
  if (kernel_) {
    kernel::AuditRecord record;
    record.time = kernel_->clock().now();
    record.module = std::string(kName);
    record.pid = task.pid();
    record.subject = task.exe_path();
    record.object = std::string(path);
    record.operation = std::string(mac_op_name(op));
    record.verdict = kernel::AuditVerdict::denied;
    record.context = "state=" + current_state_name();
    kernel_->audit().record(std::move(record));
  }
  log_debug("sack: DENIED state=", current_state_name(), " subject=",
            task.exe_path(), " object=", path, " op=", mac_op_name(op));
}

Errno SackModule::check_op(const Task& task, std::string_view path, MacOp op,
                           const kernel::Inode* inode) {
  if (mode_ != SackMode::independent || !loaded_) return Errno::ok;
  // Observability gate: one relaxed load. Everything below only takes
  // timestamps / appends trace records when `obs` is set, so the disabled
  // hook path is the pre-observability code plus predictable branches.
  const bool obs = observing();
  const std::uint64_t t_start = obs ? monotonic_ns() : 0;
  AccessQuery query;
  query.subject_exe = task.exe_path();
  query.subject_profile = profile_of(task);
  query.object_path = path;
  query.op = op;
  // Read the generation before consulting any cache or rule snapshot. If a
  // transition lands between this load and the rule walk below, the verdict
  // we insert carries this (now old) stamp and is never served again.
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  bool avc_hit = false;
  Errno rc = Errno::ok;
  if (avc_enabled_) {
    if (auto cached = avc_.probe(query, generation)) {
      avc_hit = true;
      rc = *cached;
    }
  }
  const std::uint64_t t_probe = obs ? monotonic_ns() : 0;
  if (!avc_hit) {
    // Pre-resolved label fast path: when the hook has an inode, the
    // activation-independent half of the decision ("which loaded rules name
    // this path") is cached on the inode — an AVC miss then costs only mask
    // intersections, not a matcher walk. The label generation is read
    // before resolving; if a policy load lands in between, check_labeled
    // sees the stale stamp and recomputes. The probe is keyed on the path
    // too: a hard-linked inode reached under another name, or an inode
    // re-checked after rename, misses and re-resolves rather than reusing a
    // label that encodes a different name's rules.
    if (inode != nullptr) {
      const std::uint64_t label_gen = rules_.label_generation();
      if (auto cached = inode->mac_label(kName, label_gen, path)) {
        rc = rules_.check_labeled(
            query, *static_cast<const ObjectLabel*>(cached.get()), label_gen);
      } else {
        auto label = rules_.resolve_label(path);
        rc = rules_.check_labeled(query, *label, label_gen);
        inode->mac_label_store(kName, label_gen, path, std::move(label));
      }
    } else {
      rc = rules_.check(query);
    }
    if (avc_enabled_) avc_.insert(query, generation, rc);
  }
  // Denials audit on every occurrence, cached or not — the AVC caches the
  // decision, not the audit obligation.
  if (rc != Errno::ok) note_denial(task, path, op);
  if (obs) {
    const std::uint64_t t_end = monotonic_ns();
    metrics_.hook_total_ns.record(t_end - t_start);
    metrics_.avc_probe_ns.record(t_probe - t_start);
    if (!avc_hit) metrics_.matcher_walk_ns.record(t_end - t_probe);
    TraceRecord tr;
    tr.time = kernel_ ? kernel_->clock().now() : 0;
    tr.pid = task.pid().get();
    tr.hook = TraceHook::check_op;
    tr.op = op;
    tr.verdict = rc;
    tr.avc_hit = avc_hit;
    tr.state_encoding = current_encoding_or(-1);
    tr.subject = task.exe_path();
    tr.object = std::string(path);
    tr.latency_ns = t_end - t_start;
    trace_.append(std::move(tr));
  }
  return rc;
}

Errno SackModule::check_access_mask(const Task& task, std::string_view path,
                                    AccessMask access,
                                    const kernel::Inode* inode) {
  if (has_any(access, AccessMask::read)) {
    if (Errno rc = check_op(task, path, MacOp::read, inode); rc != Errno::ok)
      return rc;
  }
  if (has_any(access, AccessMask::write)) {
    if (Errno rc = check_op(task, path, MacOp::write, inode); rc != Errno::ok)
      return rc;
  }
  if (has_any(access, AccessMask::append)) {
    if (Errno rc = check_op(task, path, MacOp::append, inode); rc != Errno::ok)
      return rc;
  }
  if (has_any(access, AccessMask::exec)) {
    if (Errno rc = check_op(task, path, MacOp::exec, inode); rc != Errno::ok)
      return rc;
  }
  return Errno::ok;
}

void SackModule::check_ops(const kernel::Task& task,
                           std::span<AccessQuery> queries,
                           std::span<Errno> verdicts) {
  if (mode_ != SackMode::independent || !loaded_) {
    for (std::size_t i = 0; i < queries.size(); ++i) verdicts[i] = Errno::ok;
    return;
  }
  const bool obs = observing();
  const std::uint64_t t_start = obs ? monotonic_ns() : 0;
  const std::string_view exe = task.exe_path();
  const std::string_view profile = profile_of(task);
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  std::vector<std::size_t> miss_index;
  std::vector<AccessQuery> misses;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    AccessQuery& query = queries[i];
    query.subject_exe = exe;
    query.subject_profile = profile;
    bool avc_hit = false;
    if (avc_enabled_) {
      if (auto cached = avc_.probe(query, generation)) {
        verdicts[i] = *cached;
        avc_hit = true;
      }
    }
    if (!avc_hit) miss_index.push_back(i);
  }
  const std::uint64_t t_probe = obs ? monotonic_ns() : 0;
  if (!miss_index.empty()) {
    misses.reserve(miss_index.size());
    for (std::size_t i : miss_index) misses.push_back(queries[i]);
    std::vector<Errno> miss_verdicts(misses.size());
    rules_.check_ops(misses, miss_verdicts);
    for (std::size_t m = 0; m < miss_index.size(); ++m) {
      verdicts[miss_index[m]] = miss_verdicts[m];
      if (avc_enabled_)
        avc_.insert(misses[m], generation, miss_verdicts[m]);
    }
  }
  const std::uint64_t t_walk = obs ? monotonic_ns() : 0;
  // The AVC caches decisions, not audit obligations: every denial in the
  // batch audits, exactly as the equivalent check_op sequence would.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (verdicts[i] != Errno::ok)
      note_denial(task, queries[i].object_path, queries[i].op);
  }
  if (obs && !queries.empty()) {
    // Batch observability mirrors check_op's one-sample-per-decision shape:
    // each query contributes one trace record and one sample per stage
    // histogram, with the measured batch stage cost split evenly across the
    // queries that went through that stage. Sample counts (and therefore
    // percentile weighting against the hook path) stay honest; only the
    // per-query attribution is amortized, as the header documents.
    const std::uint64_t t_end = monotonic_ns();
    const std::uint64_t per_query_total = (t_end - t_start) / queries.size();
    const std::uint64_t per_query_probe =
        (t_probe - t_start) / queries.size();
    const std::uint64_t per_miss_walk =
        miss_index.empty() ? 0 : (t_walk - t_probe) / miss_index.size();
    const SimTime now = kernel_ ? kernel_->clock().now() : 0;
    const int state = current_encoding_or(-1);
    std::size_t next_miss = 0;  // miss_index is ascending by construction
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const bool missed =
          next_miss < miss_index.size() && miss_index[next_miss] == i;
      if (missed) ++next_miss;
      metrics_.hook_total_ns.record(per_query_total);
      metrics_.avc_probe_ns.record(per_query_probe);
      if (missed) metrics_.matcher_walk_ns.record(per_miss_walk);
      TraceRecord tr;
      tr.time = now;
      tr.pid = task.pid().get();
      tr.hook = TraceHook::check_op;
      tr.op = queries[i].op;
      tr.verdict = verdicts[i];
      tr.avc_hit = !missed;
      tr.state_encoding = state;
      tr.subject = task.exe_path();
      tr.object = std::string(queries[i].object_path);
      tr.latency_ns = per_query_total;
      trace_.append(std::move(tr));
    }
  }
}

Errno SackModule::file_open(Task& task, const std::string& path,
                            const kernel::Inode& inode, AccessMask access) {
  return check_access_mask(task, path, access, &inode);
}

Errno SackModule::file_permission(Task& task, const kernel::File& file,
                                  AccessMask access) {
  if (mode_ != SackMode::independent || !loaded_) return Errno::ok;
  if (file.path().starts_with("pipe:") || file.is_socket()) return Errno::ok;
  if (!revalidate_cache_)
    return check_access_mask(task, file.path(), access, file.inode().get());
  // Revalidate when the situation/policy changed (generation) OR the subject
  // changed (open files survive exec) since the last successful check on
  // this open file — the adaptive-revocation path. Read the generation once
  // so a transition racing this check can only make us re-validate, never
  // stamp a new-generation verdict computed on old rules. The cache probe
  // compares the subject views against the stored key in place — the warm
  // path (every read/write after the first) allocates nothing; the composed
  // subject string is only built to store a fresh verdict.
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  const std::string_view exe = task.exe_path();
  const std::string_view profile = profile_of(task);
  if (file.mac_verdict_current(kName, generation, exe, profile))
    return Errno::ok;
  Errno rc = check_access_mask(task, file.path(), access, file.inode().get());
  if (rc == Errno::ok) {
    std::string subject(exe);
    subject += '\0';
    subject += profile;
    file.mac_verdict_store(kName, generation, std::move(subject));
  }
  return rc;
}

Errno SackModule::file_ioctl(Task& task, const kernel::File& file,
                             std::uint32_t) {
  return check_op(task, file.path(), MacOp::ioctl, file.inode().get());
}

Errno SackModule::mmap_file(Task& task, const kernel::File& file,
                            AccessMask) {
  return check_op(task, file.path(), MacOp::mmap, file.inode().get());
}

Errno SackModule::path_mknod(Task& task, const std::string& path,
                             kernel::InodeType) {
  return check_op(task, path, MacOp::create);
}
Errno SackModule::path_unlink(Task& task, const std::string& path) {
  return check_op(task, path, MacOp::unlink);
}
Errno SackModule::path_mkdir(Task& task, const std::string& path) {
  return check_op(task, path, MacOp::mkdir);
}
Errno SackModule::path_rmdir(Task& task, const std::string& path) {
  return check_op(task, path, MacOp::rmdir);
}
Errno SackModule::path_rename(Task& task, const std::string& old_path,
                              const std::string& new_path) {
  if (Errno rc = check_op(task, old_path, MacOp::rename); rc != Errno::ok)
    return rc;
  return check_op(task, new_path, MacOp::rename);
}
Errno SackModule::path_symlink(Task& task, const std::string& path,
                               const std::string&) {
  return check_op(task, path, MacOp::create);
}
Errno SackModule::path_link(Task& task, const std::string& old_path,
                            const std::string& new_path) {
  // A hard link is a new name for a guarded object: gate it like creation on
  // the new name, and like a read on the existing one (aliasing a guarded
  // object out from under its rules must not be free).
  if (Errno rc = check_op(task, old_path, MacOp::read); rc != Errno::ok)
    return rc;
  return check_op(task, new_path, MacOp::create);
}

Errno SackModule::path_truncate(Task& task, const std::string& path) {
  return check_op(task, path, MacOp::truncate);
}
Errno SackModule::path_chmod(Task& task, const std::string& path,
                             kernel::FileMode) {
  return check_op(task, path, MacOp::chmod);
}
Errno SackModule::path_chown(Task& task, const std::string& path, kernel::Uid,
                             kernel::Gid) {
  return check_op(task, path, MacOp::chown);
}
Errno SackModule::inode_getattr(Task& task, const std::string& path) {
  return check_op(task, path, MacOp::getattr);
}
Errno SackModule::bprm_check_security(Task& task, const std::string& path) {
  return check_op(task, path, MacOp::exec);
}

std::string SackModule::getprocattr(const kernel::Task& task) {
  (void)task;
  if (!loaded_ || !ssm_) return {};
  std::string out = "state=" + ssm_->current_name() +
                    " encoding=" + std::to_string(ssm_->current_encoding());
  auto perms = current_permissions();
  if (!perms.empty()) {
    out += " permissions=";
    for (std::size_t i = 0; i < perms.size(); ++i)
      out += (i ? "," : "") + perms[i];
  }
  return out;
}

void SackModule::clock_tick(SimTime now) {
  if (!ssm_) return;
  if (ssm_->has_timed_rule()) {
    const SimTime prev_entered = ssm_->entered_current_at();
    auto outcome = ssm_->tick(now);
    if (outcome.transitioned) {
      note_transition(outcome.from, outcome.to, prev_entered, now, "timeout");
      log_info("sack: timed situation transition '",
               ssm_->state_name(outcome.from), "' -> '",
               ssm_->state_name(outcome.to), "'");
      if (kernel_) {
        kernel::AuditRecord record;
        record.time = now;
        record.module = std::string(kName);
        record.subject = ssm_->state_name(outcome.from);
        record.object = ssm_->state_name(outcome.to);
        record.operation = "transition:timeout";
        record.verdict = kernel::AuditVerdict::allowed;
        kernel_->audit().record(std::move(record));
      }
      apply_current_state();
    }
  }
  check_watchdog(now);
}

void SackModule::check_watchdog(SimTime now) {
  if (watchdog_deadline_ns_ <= 0 || !failsafe_state_) return;
  if (!sds_alive_) return;  // already tripped; waiting for the SDS to return
  if (now - last_sds_activity_ < watchdog_deadline_ns_) return;
  sds_alive_ = false;
  resync_pending_ = true;
  ++watchdog_trips_;
  const SimTime prev_entered = ssm_->entered_current_at();
  auto outcome = ssm_->force(*failsafe_state_, now);
  log_warn("sack: SDS liveness watchdog tripped (no activity for ",
           (now - last_sds_activity_) / 1'000'000, " ms >= deadline ",
           watchdog_deadline_ns_ / 1'000'000, " ms); failsafe state '",
           ssm_->state_name(*failsafe_state_), "'");
  if (kernel_) {
    kernel::AuditRecord record;
    record.time = now;
    record.module = std::string(kName);
    record.subject = ssm_->state_name(outcome.from);
    record.object = ssm_->state_name(*failsafe_state_);
    record.operation = outcome.transitioned ? "transition:watchdog_failsafe"
                                            : "watchdog:trip";
    record.verdict = kernel::AuditVerdict::allowed;
    kernel_->audit().record(std::move(record));
  }
  if (outcome.transitioned) {
    note_transition(outcome.from, outcome.to, prev_entered, now, "watchdog");
    apply_current_state();
  }
}

void SackModule::note_sds_activity(SimTime now) {
  if (now > last_sds_activity_) last_sds_activity_ = now;
  if (!sds_alive_) {
    sds_alive_ = true;
    log_info("sack: SDS activity resumed",
             resync_pending_ ? " (resync pending)" : "");
  }
}

Result<void> SackModule::resync_from_sds() {
  if (!ssm_) return Errno::einval;
  const SimTime now = kernel_ ? kernel_->clock().now() : 0;
  note_sds_activity(now);
  // The restarted SDS has no memory of past sequence numbers; its replayed
  // consensus starts a fresh numbering, so the old history must not mark it
  // stale.
  event_seq_.clear();
  const SimTime prev_entered = ssm_->entered_current_at();
  auto outcome = ssm_->force(ssm_->initial(), now);
  resync_pending_ = false;
  ++resyncs_;
  log_info("sack: SDS resync: SSM reset to '", ssm_->current_name(),
           "' awaiting consensus replay");
  if (kernel_) {
    kernel::AuditRecord record;
    record.time = now;
    record.module = std::string(kName);
    record.subject = ssm_->state_name(outcome.from);
    record.object = ssm_->current_name();
    record.operation = "transition:resync";
    record.verdict = kernel::AuditVerdict::allowed;
    kernel_->audit().record(std::move(record));
  }
  if (outcome.transitioned) {
    note_transition(outcome.from, outcome.to, prev_entered, now, "resync");
    apply_current_state();
  }
  return {};
}

bool SackModule::stale_event_seq(std::string_view name, std::uint64_t seq) {
  auto it = event_seq_.find(name);
  if (it != event_seq_.end() && seq <= it->second) {
    ++events_stale_;
    return true;
  }
  if (it != event_seq_.end())
    it->second = seq;
  else
    event_seq_.emplace(std::string(name), seq);
  return false;
}

}  // namespace sack::core
