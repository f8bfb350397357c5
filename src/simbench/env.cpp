#include "simbench/env.h"

#include "simbench/policy_gen.h"
#include "util/log.h"

namespace sack::simbench {

using kernel::Cred;

std::string_view bench_mac_name(BenchMac mac) {
  switch (mac) {
    case BenchMac::none: return "no-MAC";
    case BenchMac::apparmor: return "AppArmor (baseline)";
    case BenchMac::sack_enhanced_apparmor: return "SACK-enhanced AppArmor";
    case BenchMac::independent_sack: return "Independent SACK";
  }
  return "?";
}

namespace {

// The lmbench profile grants everything the workloads touch; the cost we
// measure is the *mediation*, not artificial denials.
constexpr std::string_view kBenchProfiles = R"(
profile lmbench /usr/bin/lmbench {
  /tmp/bench/** rwx,
  /tmp/bench rw,
  /var/bench/** rwmi,
  /usr/bin/lat_exec rx,
  /dev/null rw,
  network inet,
  network unix,
  capability net_bind_service,
}
profile lat_exec /usr/bin/lat_exec {
  /tmp/bench/** rw,
  /usr/bin/lat_exec rx,
}
profile rescue_daemon /usr/bin/rescue_daemon {
  /etc/vehicle/** r,
}
profile media_app /usr/bin/media_app {
  /var/media/** r,
  /dev/vehicle/audio rwi,
}
)";

}  // namespace

BenchEnv::BenchEnv(EnvOptions options) {
  kernel_ = std::make_unique<kernel::Kernel>();

  const bool with_apparmor = options.mac == BenchMac::apparmor ||
                             options.mac == BenchMac::sack_enhanced_apparmor;
  const bool with_sack = options.mac == BenchMac::sack_enhanced_apparmor ||
                         options.mac == BenchMac::independent_sack;

  if (with_sack) {
    auto mode = options.mac == BenchMac::sack_enhanced_apparmor
                    ? core::SackMode::apparmor_enhanced
                    : core::SackMode::independent;
    sack_ = static_cast<core::SackModule*>(kernel_->add_lsm(
        std::make_unique<core::SackModule>(mode)));
  }
  if (with_apparmor) {
    apparmor_ = static_cast<apparmor::AppArmorModule*>(
        kernel_->add_lsm(std::make_unique<apparmor::AppArmorModule>()));
  }
  if (sack_ && apparmor_) sack_->attach_apparmor(apparmor_);

  populate();

  if (apparmor_) {
    auto rc = apparmor_->load_policy_text(kBenchProfiles);
    if (!rc.ok()) log_error("bench env: profile load failed");
  }
  if (sack_) {
    core::SackPolicy policy =
        options.sack_policy
            ? *options.sack_policy
            : default_bench_sack_policy(
                  options.mac == BenchMac::sack_enhanced_apparmor);
    std::vector<core::Diagnostic> diags;
    auto rc = sack_->load_policy(std::move(policy), &diags);
    if (!rc.ok()) {
      for (const auto& d : diags)
        log_error("bench env: sack policy: ", d.to_string());
    }
  }

  // Spawn after policy load so profile attachment happens.
  bench_task_ = &kernel_->spawn_task("lmbench", Cred::root(),
                                     "/usr/bin/lmbench");
  peer_task_ = &kernel_->spawn_task("lmbench-peer", Cred::root(),
                                    "/usr/bin/lmbench");
  exec_task_ = &kernel_->spawn_task("lat_exec", Cred::root(),
                                    "/usr/bin/lat_exec");
  if (!options.confine_bench_task && apparmor_) {
    apparmor_->confine(*bench_task_, "");
    apparmor_->confine(*peer_task_, "");
    apparmor_->confine(*exec_task_, "");
  }
}

BenchEnv::~BenchEnv() = default;

void BenchEnv::populate() {
  kernel::Process admin(*kernel_, kernel_->init_task());
  auto& vfs = kernel_->vfs();
  vfs.mkdir_p(kWorkDir);
  vfs.mkdir_p("/var/bench");
  vfs.mkdir_p("/var/guarded");
  vfs.mkdir_p("/var/rules");
  vfs.mkdir_p("/var/media");
  vfs.mkdir_p("/etc/vehicle");

  (void)admin.write_file("/usr/bin/lmbench", std::string(8192, 'L'));
  (void)admin.write_file(kExecTarget, std::string(16384, 'E'));
  (void)kernel_->sys_chmod(kernel_->init_task(), "/usr/bin/lmbench", 0755);
  (void)kernel_->sys_chmod(kernel_->init_task(), kExecTarget, 0755);

  (void)admin.write_file(kRereadFile, std::string(kRereadFileSize, 'R'));
  (void)admin.write_file(kCriticalFile, "critical-config\n");
  (void)admin.write_file("/dev/null", "");  // plain sink file is fine here
}

kernel::Process BenchEnv::root_process() {
  return {*kernel_, kernel_->init_task()};
}

}  // namespace sack::simbench
