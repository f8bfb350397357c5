#include "lmbench_stack.h"

#include <algorithm>
#include <tuple>

#include "core/policy_builder.h"
#include "core/policy_parser.h"
#include "ivi/ivi_system.h"
#include "kernel/process.h"
#include "sfi/module.h"
#include "sfi/recorder.h"
#include "util/rng.h"

namespace perfbench {

using sack::kernel::Cred;
using sack::kernel::OpenFlags;
using sack::operator|;

namespace {

constexpr std::string_view kBenchExe = "/usr/bin/lmbench";
constexpr std::string_view kExecTarget = "/usr/bin/lat_exec";
constexpr int kBulkRules = 1000;       // Table III's largest policy
constexpr int kLearningRounds = 2;     // covers every digram of the loop
constexpr std::size_t kPipeChunk = 64 * 1024;

std::string apparmor_profiles(const LmbenchInputs& in) {
  return "profile lmbench " + std::string(kBenchExe) +
         " {\n"
         "  /tmp/bench/** rwx,\n"
         "  /tmp/bench rw,\n"
         "  /var/bench/** rwmi,\n"
         "  " + in.rules_dir + "/** rw,\n"
         "  " + std::string(kExecTarget) + " rx,\n"
         "}\n"
         "profile lat_exec " + std::string(kExecTarget) +
         " {\n"
         "  /tmp/bench/** rw,\n"
         "  " + std::string(kExecTarget) + " rx,\n"
         "}\n";
}

// The default CAV policy plus a BULK permission of 1000 rules granted in
// every state, so the guarded open always walks a 1000-rule rule set.
sack::Result<sack::core::SackPolicy> sack_policy(const LmbenchInputs& in) {
  auto parsed =
      sack::core::parse_policy(sack::ivi::default_sack_policy_text(false));
  if (!parsed.ok()) return sack::Errno::einval;
  sack::core::SackPolicy policy = std::move(parsed.policy);
  policy.permissions.push_back("BULK");
  for (const auto& state : policy.states)
    policy.state_per[state.name].push_back("BULK");
  auto& rules = policy.per_rules["BULK"];
  for (int i = 0; i < kBulkRules; ++i) {
    auto rule = sack::core::make_rule(
        sack::core::RuleEffect::allow, "*",
        in.rules_dir + "/object_" + std::to_string(i),
        sack::core::MacOp::read | sack::core::MacOp::write);
    if (!rule.ok()) return rule.error();
    rules.push_back(std::move(rule).value());
  }
  return policy;
}

}  // namespace

LmbenchInputs LmbenchInputs::generate(std::uint64_t seed) {
  sack::Rng rng(seed ^ 0x1b3e'cafe'0000'0001ULL);
  LmbenchInputs in;
  in.rules_dir = "/var/rules/r" + std::to_string(rng.below(1u << 20));
  in.guarded_path =
      in.rules_dir + "/object_" + std::to_string(rng.below(kBulkRules));
  in.stat_path = "/var/bench/stat_" + std::to_string(rng.below(1u << 20));
  in.stat_size = 1024 + rng.below(64 * 1024);
  in.create_path = "/tmp/bench/new_" + std::to_string(rng.below(1u << 20));
  in.pipe_payload.resize(kPipeChunk);
  for (auto& c : in.pipe_payload) c = static_cast<char>('a' + rng.below(26));
  for (int r = 0; r < kRowCount; ++r) in.order[static_cast<std::size_t>(r)] = r;
  for (int i = kRowCount - 1; i > 0; --i)
    std::swap(in.order[static_cast<std::size_t>(i)],
              in.order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  return in;
}

LmbenchStack::LmbenchStack(const LmbenchInputs& in,
                           std::optional<std::string> sfi_text, bool decorate)
    : in_(in), sfi_text_(std::move(sfi_text)), decorate_(decorate) {}

LmbenchStack::~LmbenchStack() = default;

bool LmbenchStack::boot(std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error) *error = what;
    return false;
  };
  kernel_ = std::make_unique<sack::kernel::Kernel>();
  auto& k = *kernel_;
  // CONFIG_LSM="sack,apparmor,sfi": SACK filters first, SFI gates last.
  auto add = [&](std::unique_ptr<sack::kernel::SecurityModule> m,
                 std::size_t slot) {
    auto* raw = m.get();
    if (decorate_) {
      auto timed = std::make_unique<TimedModule>(std::move(m));
      timed_[slot] = timed.get();
      k.add_lsm(std::move(timed));
    } else {
      k.add_lsm(std::move(m));
    }
    return raw;
  };
  sack_ = static_cast<sack::core::SackModule*>(
      add(std::make_unique<sack::core::SackModule>(
              sack::core::SackMode::independent),
          0));
  apparmor_ = static_cast<sack::apparmor::AppArmorModule*>(
      add(std::make_unique<sack::apparmor::AppArmorModule>(), 1));
  if (sfi_text_)
    sfi_slot_ = add(std::make_unique<sack::sfi::SfiModule>(), 2);
  else
    sfi_slot_ = add(std::make_unique<sack::sfi::SfiRecorder>(), 2);
  if (decorate_) {
    witness_ = std::make_unique<TraceWitness>();
    k.add_lsm_front(std::make_unique<Sentinel>(*witness_));
    k.set_mediation_witness(witness_.get());
  }

  sack::kernel::Process admin(k, k.init_task());
  auto& vfs = k.vfs();
  vfs.mkdir_p("/tmp/bench");
  vfs.mkdir_p("/var/bench");
  vfs.mkdir_p(in_.rules_dir);
  if (!admin.write_file(kBenchExe, std::string(8192, 'L')).ok() ||
      !admin.write_file(kExecTarget, std::string(16384, 'E')).ok() ||
      !k.sys_chmod(k.init_task(), kBenchExe, 0755).ok() ||
      !k.sys_chmod(k.init_task(), kExecTarget, 0755).ok() ||
      !admin.write_file(in_.stat_path, std::string(in_.stat_size, 'S')).ok() ||
      !admin.write_file(in_.guarded_path, "guarded\n").ok())
    return fail("populating the filesystem failed");

  if (!apparmor_->load_policy_text(apparmor_profiles(in_)).ok())
    return fail("AppArmor profile load failed");
  auto policy = sack_policy(in_);
  if (!policy.ok()) return fail("SACK policy build failed");
  const std::uint64_t t0 = now_ns();
  if (!sack_->load_policy(std::move(policy).value()).ok())
    return fail("SACK policy load failed");
  load_policy_ms_ = static_cast<double>(now_ns() - t0) / 1e6;
  if (sfi_text_ && !static_cast<sack::sfi::SfiModule*>(sfi_slot_)
                        ->load_policy_text(*sfi_text_)
                        .ok())
    return fail("SFI profile load failed");

  // Spawned after the policy loads so profiles attach.
  bench_ = &k.spawn_task("lmbench", Cred::root(), std::string(kBenchExe));
  peer_ = &k.spawn_task("lmbench-peer", Cred::root(), std::string(kBenchExe));
  exec_ = &k.spawn_task("lat_exec", Cred::root(), std::string(kExecTarget));
  auto data = k.sys_pipe(*bench_);
  auto token = k.sys_pipe(*bench_);
  auto peer = k.sys_pipe(*peer_);
  if (!data.ok() || !token.ok() || !peer.ok()) return fail("pipe failed");
  std::tie(pipe_r_, pipe_w_) = *data;
  std::tie(tok_r_, tok_w_) = *token;
  std::tie(peer_r_, peer_w_) = *peer;
  return true;
}

std::unique_ptr<LmbenchStack> LmbenchStack::build(const LmbenchInputs& in,
                                                  bool decorate,
                                                  std::string* error) {
  std::string learned;
  {
    std::unique_ptr<LmbenchStack> learn(
        new LmbenchStack(in, std::nullopt, false));
    if (!learn->boot(error)) return nullptr;
    RunResult learning;
    for (int round = 0; round < kLearningRounds; ++round) {
      for (int r : in.order)
        for (int i = 0; i < 2; ++i)
          learning.check(learn->op(r) && learn->check(r), kRowNames[r]);
    }
    if (!learning.correct) {
      if (error) *error = "learning run failed: " + learning.errors.front();
      return nullptr;
    }
    auto* recorder = static_cast<sack::sfi::SfiRecorder*>(learn->sfi_slot_);
    const sack::sfi::SfiPolicy profile = recorder->distill();
    const auto replay = recorder->verify(profile);
    if (!replay.clean) {
      if (error) *error = "learned SFI profile fails replay: " + replay.detail;
      return nullptr;
    }
    learned = sack::sfi::dump_sfi_policy(profile);
  }
  std::unique_ptr<LmbenchStack> stack(
      new LmbenchStack(in, std::move(learned), decorate));
  if (!stack->boot(error)) return nullptr;
  return stack;
}

bool LmbenchStack::op(int row) {
  auto& k = *kernel_;
  switch (row) {
    case kOpenClose: {
      auto fd = k.sys_open(*bench_, in_.guarded_path, OpenFlags::read);
      return fd.ok() && k.sys_close(*bench_, *fd).ok();
    }
    case kStat: {
      auto st = k.sys_stat(*bench_, in_.stat_path);
      last_read_ = st.ok() ? st->size : 0;
      return st.ok();
    }
    case kCreateDelete: {
      auto fd = k.sys_open(*bench_, in_.create_path,
                           OpenFlags::write | OpenFlags::create);
      return fd.ok() && k.sys_close(*bench_, *fd).ok() &&
             k.sys_unlink(*bench_, in_.create_path).ok();
    }
    case kFork: {
      auto pid = k.sys_fork(*bench_);
      if (!pid.ok()) return false;
      auto child = k.task(*pid);
      if (!child.ok()) return false;
      k.sys_exit(child->get(), 0);
      auto status = k.sys_waitpid(*bench_, *pid);
      return status.ok() && *status == 0;
    }
    case kExec:
      return k.sys_execve(*exec_, kExecTarget).ok();
    case kCtxsw: {
      // lat_ctx 2p/0K: a one-byte token through each task's pipe.
      tok_a_.clear();
      tok_b_.clear();
      return k.sys_write(*bench_, tok_w_, "a").ok() &&
             k.sys_read(*bench_, tok_r_, tok_a_, 1).ok() &&
             k.sys_write(*peer_, peer_w_, "b").ok() &&
             k.sys_read(*peer_, peer_r_, tok_b_, 1).ok();
    }
    case kPipe: {
      auto wrote = k.sys_write(*bench_, pipe_w_, in_.pipe_payload);
      buf_.clear();
      auto read = k.sys_read(*bench_, pipe_r_, buf_, kPipeChunk);
      last_write_ = wrote.ok() ? *wrote : 0;
      last_read_ = read.ok() ? *read : 0;
      return wrote.ok() && read.ok();
    }
  }
  return false;
}

bool LmbenchStack::check(int row) const {
  switch (row) {
    case kStat:
      return last_read_ == in_.stat_size;
    case kCtxsw:
      return tok_a_ == "a" && tok_b_ == "b";
    case kPipe:
      return last_write_ == kPipeChunk && last_read_ == kPipeChunk &&
             buf_ == in_.pipe_payload;
    case kCreateDelete:
      return !kernel_->vfs().resolve(Cred::root(), in_.create_path, "/").ok();
    default:
      return true;
  }
}

void LmbenchStack::measure(double seconds, RowTotals& totals,
                           RunResult& result) {
  auto& k = *kernel_;
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    for (int r : in_.order) {
      if (witness_) witness_->set_row(static_cast<std::size_t>(r));
      auto& row = totals.rows[static_cast<std::size_t>(r)];
      const std::uint64_t sc0 = k.syscall_count();
      for (int i = 0; i < kOpsPerBatch; ++i) {
        const std::uint64_t t0 = now_ns();
        const bool ok = op(r);
        row.add(static_cast<double>(now_ns() - t0));
        result.check(ok && check(r), kRowNames[r]);
      }
      totals.syscalls[static_cast<std::size_t>(r)] += k.syscall_count() - sc0;
    }
  }
  totals.wall_ns += now_ns() - start;
}

double RowTotals::ops_per_s() const {
  double syscalls = 0;
  for (auto n : this->syscalls) syscalls += static_cast<double>(n);
  return wall_ns ? syscalls / (static_cast<double>(wall_ns) / 1e9) : 0.0;
}

double RowTotals::latency_ns() const {
  std::vector<double> ns;
  for (const auto& row : rows) ns.push_back(row.mean());
  return geomean(ns);
}

std::uint64_t LmbenchStack::sfi_checks() const {
  return sfi_text_ ? static_cast<const sack::sfi::SfiModule*>(sfi_slot_)
                         ->check_count()
                   : 0;
}

std::uint64_t LmbenchStack::sfi_denials() const {
  return sfi_text_ ? static_cast<const sack::sfi::SfiModule*>(sfi_slot_)
                         ->denial_count()
                   : 0;
}

TimedModule* LmbenchStack::timed(const std::string& module) const {
  if (module == "sack") return timed_[0];
  if (module == "apparmor") return timed_[1];
  if (module == "sfi") return timed_[2];
  return nullptr;
}

namespace {

// setup_s is the median of kSetups set-ups before the measurement and
// kSpreadSetups spread through it, so it samples the whole run's machine.
constexpr int kSetups = 5;
constexpr int kSpreadSetups = 20;
constexpr double kWarmupSeconds = 0.2;
constexpr double kSliceSeconds = 0.25;  // traced run: plain/traced alternation

void report_rows(const RowTotals& t, MetricMap& report) {
  for (std::size_t r = 0; r < kRowCount; ++r) {
    const Samples& s = t.rows[r];
    const std::string name = kRowNames[r];
    if (r == kPipe) {
      const double mib = static_cast<double>(kPipeChunk) / (1 << 20);
      report["pipe_mbps"] = {mib / (s.mean() / 1e9), "MB/s"};
    } else {
      report[name + "_us"] = {s.mean() / 1e3, "us"};
    }
    double which = 0;
    const double tail = s.tail(&which);
    report[name + "_p50_us"] = {s.percentile(50) / 1e3, "us"};
    report[name + "_p" + std::to_string(static_cast<int>(which)) + "_us"] = {
        tail / 1e3, "us"};
    report[name + "_ops"] = {static_cast<double>(s.count()), "count"};
  }
}

}  // namespace

RunResult run_lmbench_stack(const RunOptions& options) {
  RunResult result;
  const LmbenchInputs in = LmbenchInputs::generate(options.seed);

  // Set-ups stay alive until all are done, so the RSS growth divided by
  // their number is a per-stack figure free of allocator reuse.
  std::vector<double> setup_s;
  std::vector<double> load_ms;
  std::vector<std::unique_ptr<LmbenchStack>> stacks;
  const double rss0 = rss_kb();
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    std::string error;
    auto built = LmbenchStack::build(in, false, &error);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    result.check(built != nullptr, "set-up: " + error);
    if (!built) return result;
    load_ms.push_back(built->load_policy_ms());
    stacks.push_back(std::move(built));
  }
  const double rss_kb_per_stack = (rss_kb() - rss0) / kSetups;
  std::unique_ptr<LmbenchStack> stack = std::move(stacks.back());
  stacks.clear();

  RowTotals warmup;
  RunResult warmup_checks;
  stack->measure(kWarmupSeconds, warmup, warmup_checks);
  result.check(warmup_checks.correct, "warm-up op failed");

  if (!options.trace) {
    RowTotals totals;
    for (int i = 0; i < kSpreadSetups; ++i) {
      const std::uint64_t t0 = now_ns();
      std::string error;
      auto spare = LmbenchStack::build(in, false, &error);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      result.check(spare != nullptr, "set-up: " + error);
      spare.reset();
      stack->measure(options.seconds / kSpreadSetups, totals, result);
    }
    result.end_to_end["setup_s"] = {median(setup_s), "s"};
    result.end_to_end["ops_per_s"] = {totals.ops_per_s(), "1/s"};
    result.end_to_end["latency_us"] = {totals.latency_ns() / 1e3, "us"};
    result.end_to_end["rss_kb_per_vehicle"] = {rss_kb_per_stack, "KB"};
    report_rows(totals, result.report);
    result.report["sack.load_policy_ms"] = {median(load_ms), "ms"};
    return result;
  }

  // Traced run: a decorated twin of the stack; plain and traced slices
  // alternate so both see the same machine.
  std::string error;
  auto traced = LmbenchStack::build(in, true, &error);
  result.check(traced != nullptr, "traced set-up: " + error);
  if (!traced) return result;
  {
    RowTotals traced_warmup;
    traced->measure(kWarmupSeconds, traced_warmup, warmup_checks);
  }
  auto& k = traced->kernel();
  TimedModule* tsack = traced->timed("sack");
  TimedModule* taa = traced->timed("apparmor");
  TimedModule* tsfi = traced->timed("sfi");
  for (auto* t : {tsack, taa, tsfi}) t->reset_stats();
  TraceWitness& w = *traced->witness();
  TraceWitness::RowStat rows0[kRowCount];
  for (std::size_t r = 0; r < kRowCount; ++r) rows0[r] = w.row(r);
  const SpanStat chains0 = w.chains();
  const SpanStat deny0 = w.deny_chains();
  const auto avc0 = traced->sack().avc().stats();
  const auto audit0 = k.audit().total_recorded();
  const auto sfi_checks0 = traced->sfi_checks();
  const auto sfi_denials0 = traced->sfi_denials();
  const auto aa_denials0 = traced->apparmor().denial_count();
  const auto transitions0 = traced->sack().ssm()->transitions_taken();

  RowTotals plain_totals, traced_totals;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (now_ns() < deadline) {
    stack->measure(kSliceSeconds, plain_totals, result);
    traced->measure(kSliceSeconds, traced_totals, result);
  }

  MetricMap& m = result.per_layer;
  double ops = 0, op_ns = 0, syscall_ns = 0;
  for (std::size_t r = 0; r < kRowCount; ++r) {
    const auto& row = w.row(r);
    const Samples& op = traced_totals.rows[r];
    const double n = static_cast<double>(op.count());
    const double sys = static_cast<double>(row.syscalls - rows0[r].syscalls);
    const double sys_ns =
        static_cast<double>(row.syscall_ns - rows0[r].syscall_ns);
    const double chain_ns =
        static_cast<double>(row.chain_ns - rows0[r].chain_ns);
    const double chains = static_cast<double>(row.chains - rows0[r].chains);
    const std::string name = kRowNames[r];
    m["kernel.self_us." + name] = {(sys_ns - chain_ns) / n / 1e3, "us"};
    m["kernel.syscalls." + name] = {sys / n, "count"};
    m["lsm.chains." + name] = {chains / n, "count"};
    m["lsm.share." + name] = {chain_ns / op.total_ns(), "ratio"};
    ops += n;
    op_ns += op.total_ns();
    syscall_ns += sys_ns;
  }
  const double chain_calls =
      static_cast<double>(w.chains().calls - chains0.calls);
  const double chain_ns = static_cast<double>(w.chains().ns - chains0.ns);
  const double module_ns =
      static_cast<double>(tsack->total_ns() + taa->total_ns() + tsfi->total_ns());
  m["lsm.dispatch_ns"] = {(chain_ns - module_ns) / chain_calls, "ns"};
  const double deny_calls =
      static_cast<double>(w.deny_chains().calls - deny0.calls);
  m["lsm.deny_chain_us"] = {
      deny_calls ? static_cast<double>(w.deny_chains().ns - deny0.ns) /
                       deny_calls / 1e3
                 : 0.0,
      "us"};
  for (Hook h : kReportedHooks) {
    const std::string hook(hook_name(h));
    m["sack.hook_ns." + hook] = {tsack->stat(h).mean_ns(), "ns"};
    m["apparmor.hook_ns." + hook] = {taa->stat(h).mean_ns(), "ns"};
  }
  const auto avc1 = traced->sack().avc().stats();
  const double hits = static_cast<double>(avc1.hits - avc0.hits);
  const double misses = static_cast<double>(avc1.misses - avc0.misses);
  m["sack.avc_hit_ratio"] = {hits + misses > 0 ? hits / (hits + misses) : 0.0,
                             "ratio"};
  m["sack.transitions"] = {
      static_cast<double>(traced->sack().ssm()->transitions_taken() -
                          transitions0),
      "count"};
  m["sack.events_rejected"] = {
      static_cast<double>(traced->sack().events_rejected()), "count"};
  m["sack.events_stale"] = {static_cast<double>(traced->sack().events_stale()),
                            "count"};
  m["sack.load_policy_ms"] = {median(load_ms), "ms"};
  m["apparmor.denials"] = {
      static_cast<double>(traced->apparmor().denial_count() - aa_denials0),
      "count"};
  m["sfi.gate_ns"] = {tsfi->stat(Hook::task_syscall).mean_ns(), "ns"};
  m["sfi.checks"] = {static_cast<double>(traced->sfi_checks() - sfi_checks0),
                     "count"};
  m["sfi.denials"] = {static_cast<double>(traced->sfi_denials() - sfi_denials0),
                      "count"};
  m["audit.records_per_op"] = {
      static_cast<double>(k.audit().total_recorded() - audit0) / ops, "count"};
  m["audit.dropped"] = {static_cast<double>(k.audit().dropped()), "count"};
  m["residual_share"] = {(op_ns - syscall_ns) / op_ns, "ratio"};
  m["trace_overhead"] = {
      plain_totals.ops_per_s() / traced_totals.ops_per_s() - 1, "ratio"};
  return result;
}

}  // namespace perfbench
