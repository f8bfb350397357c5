// Layer probes: how the benchmark times each layer from outside, through
// the kernel's public observation points.
//
//   TraceWitness  a MediationWitness: syscall enter/exit brackets give each
//                 syscall's span; hook-chain spans opened by the Sentinel
//                 are closed by the stack's chain_verdict.
//   Sentinel      a head-of-stack observation module (Kernel::add_lsm_front)
//                 that opens a chain span on every hook dispatch.
//   TimedModule   a forwarding decorator around one enforcing module that
//                 times each of its hooks; it can also add a fixed busy-wait
//                 to some calls of one hook (the harness self-test).
//
// None of these is installed in an end-to-end run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "kernel/lsm/module.h"
#include "kernel/lsm/witness.h"

namespace perfbench {

using sack::Errno;
using sack::kernel::AccessMask;
using sack::kernel::Capability;
using sack::kernel::File;
using sack::kernel::FileMode;
using sack::kernel::Gid;
using sack::kernel::Inode;
using sack::kernel::InodeType;
using sack::kernel::SockFamily;
using sack::kernel::SockType;
using sack::kernel::Socket;
using sack::kernel::Task;
using sack::kernel::Uid;

enum class Hook : std::uint8_t {
  file_open, file_permission, file_ioctl, mmap_file,
  path_mknod, path_unlink, path_mkdir, path_rmdir, path_rename,
  path_symlink, path_link, path_truncate, path_chmod, path_chown,
  inode_getattr, inode_readlink, inode_listxattr, inode_getxattr,
  inode_setxattr, bprm_check, bprm_committed_creds, task_syscall,
  task_alloc, task_free, task_kill, clock_tick, capable,
  socket_create, socket_bind, socket_connect, socket_listen, socket_accept,
  socket_sendmsg, socket_recvmsg,
  count_
};
constexpr std::size_t kHooks = static_cast<std::size_t>(Hook::count_);
std::string_view hook_name(Hook h);

// The hooks whose per-call cost the per-layer report gives per module.
inline constexpr Hook kReportedHooks[] = {
    Hook::file_open,   Hook::file_permission, Hook::inode_getattr,
    Hook::path_mknod,  Hook::path_unlink,     Hook::bprm_check,
    Hook::file_ioctl};

struct SpanStat {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  double mean_ns() const {
    return calls ? static_cast<double>(ns) / static_cast<double>(calls) : 0.0;
  }
};

class TraceWitness final : public sack::kernel::MediationWitness {
 public:
  static constexpr std::size_t kMaxRows = 8;
  struct RowStat {
    std::uint64_t syscalls = 0;
    std::uint64_t syscall_ns = 0;  // top-level syscall spans
    std::uint64_t chains = 0;
    std::uint64_t chain_ns = 0;    // outermost chain spans inside syscalls
  };

  // Row that subsequent syscalls and chains are attributed to.
  void set_row(std::size_t row) { row_ = row < kMaxRows ? row : 0; }
  const RowStat& row(std::size_t r) const { return rows_[r]; }

  void syscall_enter(std::string_view name) override;
  void syscall_exit(std::string_view name) override;
  void chain_verdict(sack::Errno verdict) override;
  void open_chain(Hook h);

  // Totals across rows.
  std::uint64_t syscall_ns() const { return syscall_ns_; }
  const SpanStat& chains() const { return chains_; }       // outermost
  const SpanStat& deny_chains() const { return deny_chains_; }

 private:
  struct Open {
    Hook hook;
    std::uint64_t t0;
  };
  std::array<RowStat, kMaxRows> rows_{};
  std::size_t row_ = 0;
  int depth_ = 0;
  std::uint64_t syscall_t0_ = 0;
  std::uint64_t chain_ns_in_syscall_ = 0;
  std::uint64_t syscall_ns_ = 0;
  std::vector<Open> open_;
  SpanStat chains_;
  SpanStat deny_chains_;
};

class Sentinel final : public sack::kernel::SecurityModule {
 public:
  explicit Sentinel(TraceWitness& witness) : w_(witness) {}
  std::string_view name() const override { return "perfbench_sentinel"; }

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wunused-parameter"
#define PERFBENCH_HOOK(ret, hook, tag, params, args) \
  ret hook params override {                       \
    w_.open_chain(Hook::tag);                      \
    return ret();                                  \
  }
#include "hook_list.inc"
#undef PERFBENCH_HOOK
#pragma GCC diagnostic pop

 private:
  TraceWitness& w_;
};

class TimedModule final : public sack::kernel::SecurityModule {
 public:
  explicit TimedModule(std::unique_ptr<sack::kernel::SecurityModule> inner)
      : inner_(std::move(inner)) {}

  sack::kernel::SecurityModule* inner() const { return inner_.get(); }
  // Self-test: every `every`-th call of `h` first spins for `ns`.
  void set_delay(Hook h, std::uint64_t ns, std::uint64_t every = 1) {
    delay_[static_cast<std::size_t>(h)] = {ns, every};
  }
  const SpanStat& stat(Hook h) const {
    return stats_[static_cast<std::size_t>(h)];
  }
  std::uint64_t total_ns() const;
  void reset_stats() { stats_ = {}; }

  std::string_view name() const override { return inner_->name(); }
  void initialize(sack::kernel::Kernel& kernel) override {
    inner_->initialize(kernel);
  }
  std::string getprocattr(const sack::kernel::Task& task) override {
    return inner_->getprocattr(task);
  }

#define PERFBENCH_HOOK(ret, hook, tag, params, args) ret hook params override;
#include "hook_list.inc"
#undef PERFBENCH_HOOK

 private:
  class Span;
  struct Delay {
    std::uint64_t ns = 0;
    std::uint64_t every = 1;
  };
  std::unique_ptr<sack::kernel::SecurityModule> inner_;
  std::array<Delay, kHooks> delay_{};
  std::array<SpanStat, kHooks> stats_{};
};

}  // namespace perfbench
