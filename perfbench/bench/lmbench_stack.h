// lmbench_stack: the paper's Table II rows through the full three-module
// stack (SACK independent on its default rule engine, AppArmor, SFI), as
// assembled by the benchmark itself so each module can be decorated.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "apparmor/apparmor.h"
#include "core/sack_module.h"
#include "harness.h"
#include "kernel/kernel.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

inline constexpr int kRowCount = 7;
enum Row { kOpenClose, kStat, kCreateDelete, kFork, kExec, kCtxsw, kPipe };
inline constexpr const char* kRowNames[kRowCount] = {
    "open_close", "stat", "create_delete", "fork", "exec", "ctxsw", "pipe"};

// Everything the stack and its loop take from the seed.
struct LmbenchInputs {
  std::string rules_dir;       // holds the 1000 bulk-rule objects
  std::string guarded_path;    // open_close target: a bulk-rule object
  std::string stat_path;       // unguarded
  std::uint64_t stat_size = 0;
  std::string create_path;    // create_delete target, unguarded
  std::string pipe_payload;    // 64 KiB
  std::array<int, kRowCount> order{};  // row order of one round

  static LmbenchInputs generate(std::uint64_t seed);
};

// Consecutive ops of one row per round.
inline constexpr int kOpsPerBatch = 16;

struct RowTotals {
  std::array<Samples, kRowCount> rows;  // one sample per op
  std::array<std::uint64_t, kRowCount> syscalls{};
  std::uint64_t wall_ns = 0;

  // Syscalls per second of the measured loops' wall time.
  double ops_per_s() const;
  // Geometric mean over the rows of their mean op latency (ns).
  double latency_ns() const;
};

class LmbenchStack {
 public:
  // One full set-up: boots a learning stack with SfiRecorder in the SFI
  // slot, runs the row loop under it, distills and replay-verifies the
  // learned profile, then boots the enforcing stack with it. `decorate`
  // wraps each module in a TimedModule and installs the sentinel and
  // witness. Returns null and sets `error` on any failure.
  static std::unique_ptr<LmbenchStack> build(const LmbenchInputs& in,
                                             bool decorate,
                                             std::string* error);

  LmbenchStack(const LmbenchStack&) = delete;
  LmbenchStack& operator=(const LmbenchStack&) = delete;
  ~LmbenchStack();

  // Runs rounds (every row, kOpsPerBatch ops each, seeded order) until
  // `seconds` have passed; every op is checked into `result`.
  void measure(double seconds, RowTotals& totals, RunResult& result);

  sack::kernel::Kernel& kernel() { return *kernel_; }
  sack::core::SackModule& sack() { return *sack_; }
  sack::apparmor::AppArmorModule& apparmor() { return *apparmor_; }
  std::uint64_t sfi_checks() const;
  std::uint64_t sfi_denials() const;
  // Null unless decorated.
  TimedModule* timed(const std::string& module) const;
  TraceWitness* witness() const { return witness_.get(); }
  double load_policy_ms() const { return load_policy_ms_; }

 private:
  LmbenchStack(const LmbenchInputs& in, std::optional<std::string> sfi_text,
               bool decorate);
  bool boot(std::string* error);
  bool op(int row);
  bool check(int row) const;

  const LmbenchInputs& in_;
  std::optional<std::string> sfi_text_;  // none: learning stack
  bool decorate_;
  std::unique_ptr<TraceWitness> witness_;  // outlives the kernel using it
  std::unique_ptr<sack::kernel::Kernel> kernel_;
  sack::core::SackModule* sack_ = nullptr;
  sack::apparmor::AppArmorModule* apparmor_ = nullptr;
  sack::kernel::SecurityModule* sfi_slot_ = nullptr;
  std::array<TimedModule*, 3> timed_{};  // sack, apparmor, sfi
  sack::kernel::Task* bench_ = nullptr;
  sack::kernel::Task* peer_ = nullptr;
  sack::kernel::Task* exec_ = nullptr;
  sack::kernel::Fd pipe_r_{}, pipe_w_{}, tok_r_{}, tok_w_{}, peer_r_{},
      peer_w_{};
  std::string buf_, tok_a_, tok_b_;
  std::uint64_t last_write_ = 0, last_read_ = 0;
  double load_policy_ms_ = 0;
};

}  // namespace perfbench
