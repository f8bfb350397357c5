// ivi_drive: the IVI system in SACK-enhanced AppArmor mode with SFI and the
// SDS on its default detectors, replaying seeded driving traces frame by
// frame with a fixed app burst after each frame. The only workload in which
// SSM transitions, SACKfs event writes, AppArmor rule injection and
// retraction, SFI situation overlays and the denial/audit path run.
#include <memory>
#include <string>
#include <vector>

#include "ivi/ivi_system.h"
#include "sds/traces.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sack::Errno;
using sack::ivi::IviSystem;

// setup_s is the median of kSetups boots before the measurement and
// kSpreadSetups spread through it (one boot takes well under a millisecond).
constexpr int kSetups = 25;
constexpr int kSpreadSetups = 25;
constexpr std::int64_t kFrameMs = 100;
constexpr double kWarmupSeconds = 0.2;
constexpr double kSliceSeconds = 0.25;

enum Action { kPlay, kVolume, kRescue, kKoffeeVolume, kKoffeeRead, kActions };
constexpr const char* kActionNames[kActions] = {
    "media.play_track", "media.set_volume", "rescue.respond_to_emergency",
    "koffee.max_volume", "koffee.read_sensitive"};

// Denied actions whose first syscall is the denied one (set_volume's
// driving denial comes at its second call, the ioctl, and is not timed as
// a denial).
constexpr bool kDeniedAtFirstCall[kActions] = {false, false, true, true,
                                               true};

// State encodings of the default CAV policy.
enum State { kParkedWithDriver, kParkedWithoutDriver, kDriving, kEmergency };
constexpr int kStates = 4;
constexpr const char* kStateNames[kStates] = {
    "parked_with_driver", "parked_without_driver", "driving", "emergency"};

// Expected verdict per (action, situation state). Enhanced mode: SACK
// injects the door/window grants into the rescue profile only in an
// emergency; the SFI overlay forbids the media ioctl while driving; the
// attacker's profile never covers the audio device or the VIN file.
constexpr Errno kExpected[kActions][kStates] = {
    {Errno::ok, Errno::ok, Errno::ok, Errno::ok},
    {Errno::ok, Errno::ok, Errno::eacces, Errno::ok},
    {Errno::eacces, Errno::eacces, Errno::eacces, Errno::ok},
    {Errno::eacces, Errno::eacces, Errno::eacces, Errno::eacces},
    {Errno::eacces, Errno::eacces, Errno::eacces, Errno::eacces},
};

struct Inputs {
  sack::sds::Trace frames;  // the three traces back to back (short, so
                            // situation changes are frequent)
  std::string track;        // media library content
  long volume = 10;

  static Inputs generate(std::uint64_t seed) {
    sack::Rng rng(seed ^ 0x1b3e'cafe'0000'0002ULL);
    sack::sds::TraceOptions options;
    options.seed = seed;
    options.frame_interval_ms = kFrameMs;
    Inputs in;
    for (auto trace :
         {sack::sds::parking_handoff_trace(options),
          sack::sds::highway_crash_trace(
              static_cast<int>(5 + rng.below(6)), options),
          sack::sds::city_drive_trace(static_cast<int>(10 + rng.below(11)),
                                      options)}) {
      in.frames.insert(in.frames.end(), trace.begin(), trace.end());
    }
    in.track.resize(4096);  // content varies with the seed, cost does not
    for (auto& c : in.track) c = static_cast<char>('a' + rng.below(26));
    in.volume = static_cast<long>(5 + rng.below(20));
    return in;
  }
};

struct DriveStats {
  Classes situation;  // by transition: feed() entry -> decided action return
  Classes deny;       // by action: per denied syscall
  std::uint64_t feeds = 0;
  std::uint64_t feed_ns = 0;
  std::uint64_t feed_syscall_ns = 0;  // traced only
  std::uint64_t loop_ns = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t emitted = 0;
  std::uint64_t delivered = 0;
};

class Drive {
 public:
  Drive(const Inputs& in, bool traced) : in_(in) {
    sys_ = std::make_unique<IviSystem>(IviSystem::Options{
        .mac = sack::ivi::MacConfig::sack_enhanced_apparmor,
        .start_sds = true,
        .enable_sfi = true,
    });
    if (traced) {
      witness_ = std::make_unique<TraceWitness>();
      sys_->kernel().add_lsm_front(std::make_unique<Sentinel>(*witness_));
      sys_->kernel().set_mediation_witness(witness_.get());
    }
    ok_ = sys_->sack() && sys_->apparmor() && sys_->sfi() &&
          sys_->admin_process()
              .write_file(IviSystem::kMediaTrack, in_.track,
                          sack::kernel::OpenFlags::trunc)
              .ok();
  }
  Drive(const Drive&) = delete;
  Drive& operator=(const Drive&) = delete;

  bool ok() const { return ok_; }
  IviSystem& sys() { return *sys_; }
  TraceWitness* witness() { return witness_.get(); }

  // Frames and bursts until `seconds` have passed.
  void run(double seconds, DriveStats& st, RunResult& result);

 private:
  Errno act(int action);
  int state() const { return sys_->sack()->ssm()->current_encoding(); }

  const Inputs& in_;
  std::unique_ptr<TraceWitness> witness_;  // outlives the kernel using it
  std::unique_ptr<IviSystem> sys_;
  bool ok_ = false;
  std::size_t next_frame_ = 0;
  std::int64_t time_base_ms_ = 0;
};

Errno Drive::act(int action) {
  switch (action) {
    case kPlay: {
      auto r = sys_->media().play_track(IviSystem::kMediaTrack);
      if (!r.ok()) return r.error();
      return *r == in_.track ? Errno::ok : Errno::eio;
    }
    case kVolume: {
      auto r = sys_->media().set_volume(in_.volume);
      return r.ok() ? Errno::ok : r.error();
    }
    case kRescue: {
      const auto log = sys_->rescue().respond_to_emergency();
      if (log.all_ok()) return Errno::ok;
      return log.count(Errno::eacces) == log.attempts.size() ? Errno::eacces
                                                             : Errno::eio;
    }
    case kKoffeeVolume: {
      auto r = sys_->attacker().max_volume();
      return r.ok() ? Errno::ok : r.error();
    }
    case kKoffeeRead: {
      auto r = sys_->attacker().read_sensitive(IviSystem::kSensitiveFile);
      return r.ok() ? Errno::ok : r.error();
    }
  }
  return Errno::einval;
}

void Drive::run(double seconds, DriveStats& st, RunResult& result) {
  auto& k = sys_->kernel();
  auto& sds = sys_->sds();
  const std::uint64_t syscalls0 = k.syscall_count();
  const std::uint64_t start = now_ns();
  const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    if (next_frame_ == in_.frames.size()) {
      next_frame_ = 0;
      time_base_ms_ += in_.frames.back().time_ms + kFrameMs;
    }
    sack::sds::SensorFrame frame = in_.frames[next_frame_++];
    frame.time_ms += time_base_ms_;  // scenario time keeps moving forward
    k.advance_clock_ms(kFrameMs);

    const int before = state();
    const std::uint64_t sys_ns0 = witness_ ? witness_->syscall_ns() : 0;
    const std::uint64_t t_feed = now_ns();
    const auto fed = sds.feed(frame);
    const std::uint64_t t_fed = now_ns();
    st.feed_ns += t_fed - t_feed;
    if (witness_) st.feed_syscall_ns += witness_->syscall_ns() - sys_ns0;
    ++st.feeds;
    st.emitted += fed.emitted.size();
    st.delivered += fed.delivered.size();
    const int after = state();
    result.check(after >= 0 && after < kStates, "unknown situation state");
    if (after < 0 || after >= kStates) break;

    bool situation_pending = after != before;
    for (int a = 0; a < kActions; ++a) {
      const std::uint64_t a_sc0 = k.syscall_count();
      const std::uint64_t t0 = now_ns();
      const Errno got = act(a);
      const std::uint64_t t1 = now_ns();
      const Errno want = kExpected[a][after];
      if (got == want) {
        result.check(true, {});
      } else {
        result.check(false, std::string(kActionNames[a]) + " in " +
                                kStateNames[after] + ": got " +
                                std::string(sack::errno_name(got)) +
                                ", expected " +
                                std::string(sack::errno_name(want)));
      }
      if (situation_pending && kExpected[a][before] != want) {
        st.situation[std::string(kStateNames[before]) + "->" +
                     kStateNames[after]]
            .add(static_cast<double>(t1 - t_feed));
        situation_pending = false;
      }
      const std::uint64_t calls = k.syscall_count() - a_sc0;
      if (want != Errno::ok && kDeniedAtFirstCall[a] && calls > 0) {
        st.deny[kActionNames[a]].add(static_cast<double>(t1 - t0) /
                                     static_cast<double>(calls));
      }
    }
  }
  st.loop_ns += now_ns() - start;
  st.syscalls += k.syscall_count() - syscalls0;
}

double ops_per_s(const DriveStats& st) {
  return st.loop_ns ? static_cast<double>(st.syscalls) /
                          (static_cast<double>(st.loop_ns) / 1e9)
                    : 0.0;
}

void report_classes(const std::string& prefix, const Classes& classes,
                    MetricMap& r) {
  for (const auto& [name, c] : classes) {
    r[prefix + name + ".us"] = {c.mean() / 1e3, "us"};
    r[prefix + name + ".p50_us"] = {c.percentile(50) / 1e3, "us"};
    r[prefix + name + ".count"] = {static_cast<double>(c.count()), "count"};
  }
}

}  // namespace

RunResult run_ivi_drive(const RunOptions& options) {
  RunResult result;
  const Inputs in = Inputs::generate(options.seed);

  // Set-ups stay alive until all are done, so the RSS growth divided by
  // their number is a per-system figure free of allocator reuse.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Drive>> drives;
  const double rss0 = rss_kb();
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = now_ns();
    drives.push_back(std::make_unique<Drive>(in, false));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    result.check(drives.back()->ok(), "IVI set-up failed");
    if (!drives.back()->ok()) return result;
  }
  const double rss_kb_per_system = (rss_kb() - rss0) / kSetups;
  std::unique_ptr<Drive> drive = std::move(drives.back());
  drives.clear();
  {
    DriveStats warmup;
    drive->run(kWarmupSeconds, warmup, result);
  }

  if (!options.trace) {
    DriveStats st;
    for (int i = 0; i < kSpreadSetups; ++i) {
      const std::uint64_t t0 = now_ns();
      auto spare = std::make_unique<Drive>(in, false);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      result.check(spare->ok(), "IVI set-up failed");
      spare.reset();
      drive->run(options.seconds / kSpreadSetups, st, result);
    }
    result.check(!st.situation.empty(), "no situation change measured");
    result.check(!st.deny.empty(), "no denial measured");
    if (st.situation.empty() || st.deny.empty()) return result;
    const double situation_ns = mean_geomean(st.situation);
    const double deny_ns = mean_geomean(st.deny);
    result.end_to_end["setup_s"] = {median(setup_s), "s"};
    result.end_to_end["ops_per_s"] = {ops_per_s(st), "1/s"};
    result.end_to_end["latency_us"] = {
        geomean({situation_ns, deny_ns}) / 1e3, "us"};
    result.end_to_end["rss_kb_per_vehicle"] = {rss_kb_per_system, "KB"};

    MetricMap& r = result.report;
    r["situation_us"] = {situation_ns / 1e3, "us"};
    r["deny_us"] = {deny_ns / 1e3, "us"};
    report_classes("situation.", st.situation, r);
    report_classes("deny.", st.deny, r);
    const Samples situations = pooled(st.situation);
    const Samples denials = pooled(st.deny);
    double which = 0;
    r["situation_p50_us"] = {situations.percentile(50) / 1e3, "us"};
    const double tail = situations.tail(&which);
    r["situation_p" + std::to_string(static_cast<int>(which)) + "_us"] = {
        tail / 1e3, "us"};
    r["situation_samples"] = {static_cast<double>(situations.count()),
                              "count"};
    r["deny_p50_us"] = {denials.percentile(50) / 1e3, "us"};
    r["frames"] = {static_cast<double>(st.feeds), "count"};
    return result;
  }

  // Traced run: a probed twin of the system; plain and traced slices
  // alternate so both see the same machine.
  Drive traced(in, true);
  result.check(traced.ok(), "traced IVI set-up failed");
  if (!traced.ok()) return result;
  {
    DriveStats warmup;
    traced.run(kWarmupSeconds, warmup, result);
  }
  auto& sys = traced.sys();
  TraceWitness& w = *traced.witness();
  const SpanStat deny0 = w.deny_chains();
  const auto audit0 = sys.kernel().audit().total_recorded();
  const auto dropped0 = sys.kernel().audit().dropped();
  const auto sfi_checks0 = sys.sfi()->check_count();
  const auto sfi_denials0 = sys.sfi()->denial_count();
  const auto aa_denials0 = sys.apparmor()->denial_count();
  const auto transitions0 = sys.sack()->ssm()->transitions_taken();
  const auto send_count0 = sys.sds().send_latency().count();
  const auto send_ns0 = sys.sds().send_latency().sum_ns();
  const auto retries0 = sys.sds().retry_enqueued();
  const auto syscall_ns0 = w.syscall_ns();

  DriveStats plain_st, traced_st;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  while (now_ns() < deadline) {
    drive->run(kSliceSeconds, plain_st, result);
    traced.run(kSliceSeconds, traced_st, result);
  }

  MetricMap& m = result.per_layer;
  const double deny_calls =
      static_cast<double>(w.deny_chains().calls - deny0.calls);
  m["lsm.deny_chain_us"] = {
      deny_calls ? static_cast<double>(w.deny_chains().ns - deny0.ns) /
                       deny_calls / 1e3
                 : 0.0,
      "us"};
  const double sends =
      static_cast<double>(sys.sds().send_latency().count() - send_count0);
  m["sack.event_write_us"] = {
      sends ? static_cast<double>(sys.sds().send_latency().sum_ns() -
                                  send_ns0) /
                  sends / 1e3
            : 0.0,
      "us"};
  m["sack.transitions"] = {
      static_cast<double>(sys.sack()->ssm()->transitions_taken() -
                          transitions0),
      "count"};
  m["sack.events_rejected"] = {
      static_cast<double>(sys.sack()->events_rejected()), "count"};
  m["sack.events_stale"] = {static_cast<double>(sys.sack()->events_stale()),
                            "count"};
  m["apparmor.denials"] = {
      static_cast<double>(sys.apparmor()->denial_count() - aa_denials0),
      "count"};
  m["sfi.checks"] = {static_cast<double>(sys.sfi()->check_count() -
                                         sfi_checks0),
                     "count"};
  m["sfi.denials"] = {static_cast<double>(sys.sfi()->denial_count() -
                                          sfi_denials0),
                      "count"};
  m["audit.records_per_op"] = {
      static_cast<double>(sys.kernel().audit().total_recorded() - audit0) /
          static_cast<double>(traced_st.syscalls),
      "count"};
  m["audit.dropped"] = {
      static_cast<double>(sys.kernel().audit().dropped() - dropped0),
      "count"};
  const double feeds = static_cast<double>(traced_st.feeds);
  const double feed_self_ns =
      static_cast<double>(traced_st.feed_ns - traced_st.feed_syscall_ns);
  m["sds.feed_self_us"] = {feed_self_ns / feeds / 1e3, "us"};
  m["sds.delivered_ratio"] = {
      traced_st.emitted ? static_cast<double>(traced_st.delivered) /
                              static_cast<double>(traced_st.emitted)
                        : 1.0,
      "ratio"};
  m["sds.retries"] = {
      static_cast<double>(sys.sds().retry_enqueued() - retries0), "count"};
  const double loop_ns = static_cast<double>(traced_st.loop_ns);
  const double syscall_ns = static_cast<double>(w.syscall_ns() - syscall_ns0);
  m["residual_share"] = {(loop_ns - syscall_ns - feed_self_ns) / loop_ns,
                         "ratio"};
  m["trace_overhead"] = {ops_per_s(plain_st) / ops_per_s(traced_st) - 1,
                        "ratio"};
  return result;
}

}  // namespace perfbench
