// Benchmark environments: a booted simulated kernel with a selectable MAC
// stack and a prepared "lmbench" workload process.
//
// Table II's three columns are three of these configurations; Table III and
// Fig 3 use the same builder with synthetic policies swapped in.
#pragma once

#include <memory>
#include <string>

#include "apparmor/apparmor.h"
#include "core/policy.h"
#include "core/sack_module.h"
#include "kernel/kernel.h"
#include "kernel/process.h"

namespace sack::simbench {

enum class BenchMac : std::uint8_t {
  none,                   // LSM framework without MAC modules (RISC-V baseline)
  apparmor,               // the paper's Table II baseline
  sack_enhanced_apparmor, // SACK as an AppArmor extension
  independent_sack,       // SACK with its own enforcement
};

std::string_view bench_mac_name(BenchMac mac);

struct EnvOptions {
  BenchMac mac = BenchMac::apparmor;
  // Confine the bench process under the "lmbench" AppArmor profile (so the
  // profile matcher actually runs; an unconfined task short-circuits).
  bool confine_bench_task = true;
  // Replace the default SACK policy with a synthetic one (Table III, Fig 3).
  std::optional<core::SackPolicy> sack_policy;
};

class BenchEnv {
 public:
  explicit BenchEnv(EnvOptions options);
  BenchEnv() : BenchEnv(EnvOptions{}) {}
  ~BenchEnv();

  kernel::Kernel& kernel() { return *kernel_; }
  kernel::Task& task() { return *bench_task_; }
  kernel::Process process() { return {*kernel_, *bench_task_}; }
  kernel::Process root_process();  // for event writes etc.

  core::SackModule* sack() { return sack_; }
  apparmor::AppArmorModule* apparmor() { return apparmor_; }

  // A second task for ping-pong workloads (context switch).
  kernel::Task& peer_task() { return *peer_task_; }
  // A scratch task whose image the exec workload keeps replacing.
  kernel::Task& exec_task() { return *exec_task_; }

  static constexpr std::string_view kWorkDir = "/tmp/bench";
  static constexpr std::string_view kRereadFile = "/var/bench/readfile";
  static constexpr std::string_view kCriticalFile = "/var/bench/critical";
  static constexpr std::string_view kExecTarget = "/usr/bin/lat_exec";
  static constexpr std::size_t kRereadFileSize = 1 << 20;  // 1 MiB

 private:
  void populate();

  std::unique_ptr<kernel::Kernel> kernel_;
  core::SackModule* sack_ = nullptr;
  apparmor::AppArmorModule* apparmor_ = nullptr;
  kernel::Task* bench_task_ = nullptr;
  kernel::Task* peer_task_ = nullptr;
  kernel::Task* exec_task_ = nullptr;
};

}  // namespace sack::simbench
