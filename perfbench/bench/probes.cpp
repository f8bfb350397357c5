#include "probes.h"

#include "harness.h"

namespace perfbench {

std::string_view hook_name(Hook h) {
  static constexpr std::string_view kNames[] = {
#define PERFBENCH_HOOK(ret, hook, tag, params, args) #tag,
#include "hook_list.inc"
#undef PERFBENCH_HOOK
  };
  static_assert(std::size(kNames) == kHooks, "hook_list.inc and Hook differ");
  return kNames[static_cast<std::size_t>(h)];
}

void TraceWitness::syscall_enter(std::string_view) {
  if (depth_++ == 0) {
    syscall_t0_ = now_ns();
    chain_ns_in_syscall_ = 0;
  }
}

void TraceWitness::syscall_exit(std::string_view) {
  if (--depth_ != 0) return;
  const std::uint64_t ns = now_ns() - syscall_t0_;
  RowStat& r = rows_[row_];
  ++r.syscalls;
  r.syscall_ns += ns;
  r.chain_ns += chain_ns_in_syscall_;
  syscall_ns_ += ns;
}

void TraceWitness::open_chain(Hook h) { open_.push_back({h, now_ns()}); }

void TraceWitness::chain_verdict(sack::Errno verdict) {
  if (open_.empty()) return;
  const std::uint64_t ns = now_ns() - open_.back().t0;
  open_.pop_back();
  if (verdict != sack::Errno::ok) {
    deny_chains_.ns += ns;
    ++deny_chains_.calls;
  }
  if (!open_.empty()) return;  // nested chain: its time is in the outer one
  chains_.ns += ns;
  ++chains_.calls;
  if (depth_ > 0) {
    chain_ns_in_syscall_ += ns;
    ++rows_[row_].chains;
  }
}

// Times one decorated hook call, after spinning for any injected delay.
class TimedModule::Span {
 public:
  Span(TimedModule& m, Hook h)
      : m_(m), i_(static_cast<std::size_t>(h)), t0_(now_ns()) {
    const Delay& d = m_.delay_[i_];
    if (d.ns && m_.stats_[i_].calls % d.every == 0) busy_wait_ns(d.ns);
  }
  ~Span() {
    m_.stats_[i_].ns += now_ns() - t0_;
    ++m_.stats_[i_].calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TimedModule& m_;
  std::size_t i_;
  std::uint64_t t0_;
};

#define PERFBENCH_HOOK(ret, hook, tag, params, args) \
  ret TimedModule::hook params {                   \
    Span span(*this, Hook::tag);                   \
    return inner_->hook args;                      \
  }
#include "hook_list.inc"
#undef PERFBENCH_HOOK

std::uint64_t TimedModule::total_ns() const {
  std::uint64_t ns = 0;
  for (const auto& s : stats_) ns += s.ns;
  return ns;
}

}  // namespace perfbench
