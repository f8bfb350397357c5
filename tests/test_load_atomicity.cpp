// load_policy failure atomicity: a failed load is a no-op.
//
// Whatever the failure mode — parse error, checker rejection, or an injected
// rule-set snapshot failure (ENOMEM, EIO) —
// the module must keep serving exactly the pre-attempt policy: same active
// snapshot, same policy generation, same rule-set label generation, same AVC
// contents (still warm, still hitting), same situation state, and — the
// property the rest derives its meaning from — the same verdict for every
// probe. These tests take a full observable snapshot around each failing
// load and require it bit-identical.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "core/sack_module.h"
#include "kernel/process.h"
#include "util/fault.h"

namespace sack::core {
namespace {

using kernel::Cred;
using kernel::Kernel;
using kernel::Process;
using kernel::Task;

constexpr std::string_view kPolicyV1 = R"(
states { normal = 0; emergency = 1; }
initial normal;
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions { MEDIA_READ; DOOR_CONTROL; }
state_per {
  normal: MEDIA_READ;
  emergency: MEDIA_READ, DOOR_CONTROL;
}
per_rules {
  MEDIA_READ { allow * /var/media/** read getattr; }
  DOOR_CONTROL { allow /usr/bin/rescue /dev/door write ioctl; }
}
)";

// Parses, but the checker rejects it: `initial` names an undefined state.
constexpr std::string_view kCheckerReject = R"(
states { normal = 0; }
initial missing;
permissions { MEDIA_READ; }
state_per { normal: MEDIA_READ; }
per_rules { MEDIA_READ { allow * /var/media/** read; } }
)";

constexpr std::string_view kParseError = "states { broken";

// Valid, and glob-heavy enough that a 2-state DFA budget cannot hold it.
constexpr std::string_view kPolicyV2 = R"(
states { normal = 0; emergency = 1; }
initial normal;
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions { MEDIA_READ; DOOR_CONTROL; LOG_WRITE; }
state_per {
  normal: MEDIA_READ, LOG_WRITE;
  emergency: MEDIA_READ, DOOR_CONTROL;
}
per_rules {
  MEDIA_READ { allow * /var/media/**/*.pcm read getattr; }
  DOOR_CONTROL { allow /usr/bin/* /dev/door* write ioctl; }
  LOG_WRITE { allow /usr/bin/logger /var/log/**/*.log write append; }
}
)";

class LoadAtomicityTest : public ::testing::Test {
 protected:
  LoadAtomicityTest() {
    sack_ = static_cast<SackModule*>(kernel_.add_lsm(
        std::make_unique<SackModule>(SackMode::independent)));
    kernel_.vfs().mkdir_p("/var/media");
    Process admin(kernel_, kernel_.init_task());
    EXPECT_TRUE(admin.write_file("/var/media/track.pcm", "DATA").ok());
    EXPECT_TRUE(admin.write_file("/dev/door", "").ok());
    media_ = &kernel_.spawn_task("media", Cred::root(), "/usr/bin/media");
    rescue_ = &kernel_.spawn_task("rescue", Cred::root(), "/usr/bin/rescue");
    EXPECT_TRUE(sack_->load_policy_text(kPolicyV1).ok());
  }

  void TearDown() override { util::FaultInjector::instance().reset(); }

  // Everything a failed load must not change.
  struct Observables {
    std::uint64_t policy_generation = 0;
    std::uint64_t label_generation = 0;
    std::size_t active_rules = 0;
    std::size_t total_rules = 0;
    std::string state;
    std::size_t avc_entries = 0;
    std::vector<Errno> decisions;  // cold pass + warm (AVC-served) pass

    bool operator==(const Observables&) const = default;
  };

  Observables observe() {
    Observables snapshot;
    snapshot.policy_generation = sack_->policy_generation();
    snapshot.label_generation = sack_->ruleset().label_generation();
    snapshot.active_rules = sack_->ruleset().active_rule_count();
    snapshot.total_rules = sack_->ruleset().total_rule_count();
    snapshot.state = sack_->current_state_name();

    std::array<AccessQuery, 6> queries{
        AccessQuery{{}, {}, "/var/media/track.pcm", MacOp::read},
        AccessQuery{{}, {}, "/var/media/track.pcm", MacOp::getattr},
        AccessQuery{{}, {}, "/var/media/track.pcm", MacOp::write},
        AccessQuery{{}, {}, "/dev/door", MacOp::write},
        AccessQuery{{}, {}, "/dev/door", MacOp::ioctl},
        AccessQuery{{}, {}, "/etc/unguarded", MacOp::read},
    };
    std::array<Errno, 6> verdicts{};
    for (int pass = 0; pass < 2; ++pass) {
      for (Task* task : {media_, rescue_}) {
        sack_->check_ops(*task, queries, verdicts);
        snapshot.decisions.insert(snapshot.decisions.end(), verdicts.begin(),
                                  verdicts.end());
      }
    }
    // Entries are read after the sweep so both snapshots count the same
    // (now fully populated) working set.
    snapshot.avc_entries = sack_->avc().stats().entries;
    return snapshot;
  }

  Kernel kernel_;
  SackModule* sack_ = nullptr;
  Task* media_ = nullptr;
  Task* rescue_ = nullptr;
};

TEST_F(LoadAtomicityTest, ParseErrorChangesNothing) {
  const Observables before = observe();
  const std::uint64_t hits_before = sack_->avc().stats().hits;
  EXPECT_FALSE(sack_->load_policy_text(kParseError).ok());
  const Observables after = observe();
  EXPECT_EQ(before, after);
  // The warm pass after the failed load was still served by the cache: the
  // failure did not flush or re-generation the AVC.
  EXPECT_GT(sack_->avc().stats().hits, hits_before);
}

TEST_F(LoadAtomicityTest, CheckerRejectionChangesNothing) {
  const Observables before = observe();
  EXPECT_FALSE(sack_->load_policy_text(kCheckerReject).ok());
  EXPECT_EQ(before, observe());
}

TEST_F(LoadAtomicityTest, InjectedRulesetLoadFailureChangesNothing) {
  auto& fi = util::FaultInjector::instance();
  util::FaultSpec spec;
  spec.error = Errno::enomem;
  ASSERT_TRUE(fi.arm("sack.ruleset.load", spec));

  const Observables before = observe();
  auto load = sack_->load_policy_text(kPolicyV2);
  ASSERT_FALSE(load.ok());
  EXPECT_EQ(load.error(), Errno::enomem);
  EXPECT_EQ(before, observe());

  // Disarmed, the identical text loads and the snapshot atomically moves:
  // new generation, new label generation, new rule counts.
  fi.reset();
  ASSERT_TRUE(sack_->load_policy_text(kPolicyV2).ok());
  const Observables after = observe();
  EXPECT_NE(before.policy_generation, after.policy_generation);
  EXPECT_NE(before.label_generation, after.label_generation);
  EXPECT_EQ(after.total_rules, 3u);
}

TEST_F(LoadAtomicityTest, FailedLoadKeepsEnforcingOldPolicy) {
  // End-to-end: real syscalls, not just the check API. Media can read its
  // track before and after the failed load; rescue still cannot open the
  // door for writing in `normal`.
  Process media(kernel_, *media_);
  Process rescue(kernel_, *rescue_);
  EXPECT_TRUE(media.read_file("/var/media/track.pcm").ok());
  EXPECT_FALSE(rescue.write_existing("/dev/door", "open").ok());

  auto& fi = util::FaultInjector::instance();
  util::FaultSpec spec;
  spec.error = Errno::eio;
  ASSERT_TRUE(fi.arm("sack.ruleset.load", spec));
  ASSERT_FALSE(sack_->load_policy_text(kPolicyV2).ok());

  EXPECT_TRUE(media.read_file("/var/media/track.pcm").ok());
  EXPECT_FALSE(rescue.write_existing("/dev/door", "open").ok());
  EXPECT_EQ(sack_->current_state_name(), "normal");
}

}  // namespace
}  // namespace sack::core
