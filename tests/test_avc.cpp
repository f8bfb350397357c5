// Access vector cache: unit behaviour, integration with SackModule's
// enforcement path (correctness under adaptive revocation — a cached allow
// must flip to deny on the very next hook call after a revoking transition),
// and multi-threaded readers racing situation transitions (run under TSan in
// CI).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/avc.h"
#include "core/policy_parser.h"
#include "core/ruleset.h"
#include "core/sack_module.h"
#include "kernel/process.h"

namespace sack::core {
namespace {

using kernel::Cred;
using kernel::Fd;
using kernel::Kernel;
using kernel::OpenFlags;
using kernel::Process;
using kernel::Task;

AccessQuery make_query(std::string_view exe, std::string_view path,
                       MacOp op) {
  AccessQuery q;
  q.subject_exe = exe;
  q.object_path = path;
  q.op = op;
  return q;
}

// --- AccessVectorCache unit behaviour ---

TEST(AvcTest, ProbeMissThenInsertThenHit) {
  AccessVectorCache avc;
  auto q = make_query("/usr/bin/app", "/var/media/track.pcm", MacOp::read);
  EXPECT_FALSE(avc.probe(q, 5).has_value());
  avc.insert(q, 5, Errno::ok);
  auto hit = avc.probe(q, 5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, Errno::ok);

  auto s = avc.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(AvcTest, DistinctKeyComponentsAreDistinctEntries) {
  AccessVectorCache avc;
  auto q = make_query("/usr/bin/app", "/var/media/track.pcm", MacOp::read);
  avc.insert(q, 1, Errno::ok);

  auto other_op = q;
  other_op.op = MacOp::write;
  EXPECT_FALSE(avc.probe(other_op, 1).has_value());

  auto other_exe = q;
  other_exe.subject_exe = "/usr/bin/evil";
  EXPECT_FALSE(avc.probe(other_exe, 1).has_value());

  auto other_profile = q;
  other_profile.subject_profile = "media";
  EXPECT_FALSE(avc.probe(other_profile, 1).has_value());
}

TEST(AvcTest, StaleGenerationIsAMissAndOverwritable) {
  AccessVectorCache avc;
  auto q = make_query("/usr/bin/app", "/dev/door", MacOp::write);
  avc.insert(q, 7, Errno::ok);
  // The verdict was computed under generation 7; generation 8 must re-match.
  EXPECT_FALSE(avc.probe(q, 8).has_value());
  avc.insert(q, 8, Errno::eacces);
  auto hit = avc.probe(q, 8);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, Errno::eacces);
  // One key, latest stamp wins.
  EXPECT_EQ(avc.stats().entries, 1u);
}

TEST(AvcTest, InvalidateAllFlushesEverything) {
  AccessVectorCache avc;
  for (int i = 0; i < 50; ++i) {
    std::string path = "/var/obj_" + std::to_string(i);
    avc.insert(make_query("/usr/bin/app", path, MacOp::read), 3, Errno::ok);
  }
  EXPECT_GT(avc.stats().entries, 0u);
  avc.invalidate_all();
  auto s = avc.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_FALSE(
      avc.probe(make_query("/usr/bin/app", "/var/obj_1", MacOp::read), 3)
          .has_value());
}

TEST(AvcTest, CapacityIsBoundedWithEvictions) {
  AccessVectorCache avc(/*capacity=*/64);
  for (int i = 0; i < 4096; ++i) {
    std::string path = "/var/obj_" + std::to_string(i);
    avc.insert(make_query("/usr/bin/app", path, MacOp::read), 1, Errno::ok);
  }
  auto s = avc.stats();
  EXPECT_LE(s.entries, s.capacity);
  EXPECT_GT(s.evictions, 0u);
}

// --- SackModule integration: enforcement correctness with the AVC on ---

constexpr std::string_view kAvcPolicy = R"(
states { normal = 0; emergency = 1; calm = 2; }
initial normal;
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
  normal -> calm on traffic_clear;
  calm -> normal on traffic_dense;
}
permissions { MEDIA_READ; DOOR_CONTROL; }
state_per {
  normal: MEDIA_READ;
  calm: MEDIA_READ;
  emergency: MEDIA_READ, DOOR_CONTROL;
}
per_rules {
  MEDIA_READ { allow * /var/media/** read getattr; }
  DOOR_CONTROL { allow /usr/bin/rescue /dev/door write ioctl; }
}
)";

class AvcModuleTest : public ::testing::Test {
 protected:
  AvcModuleTest() {
    sack_ = static_cast<SackModule*>(kernel_.add_lsm(
        std::make_unique<SackModule>(SackMode::independent)));
    kernel_.vfs().mkdir_p("/var/media");
    Process admin(kernel_, kernel_.init_task());
    EXPECT_TRUE(admin.write_file("/var/media/track.pcm", "DATA").ok());
    EXPECT_TRUE(admin.write_file("/dev/door", "").ok());
    EXPECT_TRUE(admin.write_file("/usr/bin/rescue", "ELF").ok());
    EXPECT_TRUE(sack_->load_policy_text(kAvcPolicy).ok());
  }

  Task& rescue() {
    if (!rescue_)
      rescue_ = &kernel_.spawn_task("rescue", Cred::root(), "/usr/bin/rescue");
    return *rescue_;
  }

  Kernel kernel_;
  SackModule* sack_ = nullptr;
  Task* rescue_ = nullptr;
};

TEST_F(AvcModuleTest, RepeatHooksHitTheCache) {
  Process p(kernel_, rescue());
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  const auto before = sack_->avc().stats();
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  const auto after = sack_->avc().stats();
  EXPECT_GT(after.hits, before.hits);
}

TEST_F(AvcModuleTest, RevokedPermissionDeniedOnFirstPostTransitionHook) {
  ASSERT_TRUE(sack_->deliver_event("crash_detected").ok());
  Process p(kernel_, rescue());
  // Warm the cache with an allowed verdict on the door.
  EXPECT_TRUE(p.open("/dev/door", OpenFlags::write).ok());
  EXPECT_TRUE(p.open("/dev/door", OpenFlags::write).ok());
  EXPECT_GT(sack_->avc().stats().hits, 0u);

  // The emergency clears: DOOR_CONTROL is revoked. The very next hook call
  // must see the denial — a stale cached allow here would be a security
  // hole, not a performance bug.
  ASSERT_TRUE(sack_->deliver_event("emergency_cleared").ok());
  EXPECT_EQ(p.open("/dev/door", OpenFlags::write).error(), Errno::eacces);

  // And the permission comes back with the next emergency (OAC).
  ASSERT_TRUE(sack_->deliver_event("crash_detected").ok());
  EXPECT_TRUE(p.open("/dev/door", OpenFlags::write).ok());
}

TEST_F(AvcModuleTest, TransitionFlushesAvcViaInvalidation) {
  Process p(kernel_, rescue());
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  const auto before = sack_->avc().stats();
  ASSERT_TRUE(sack_->deliver_event("crash_detected").ok());
  const auto after = sack_->avc().stats();
  EXPECT_GT(after.invalidations, before.invalidations);
  EXPECT_EQ(after.entries, 0u);
}

TEST_F(AvcModuleTest, EquivalentStateTransitionKeepsGenerationAndCache) {
  Process p(kernel_, rescue());
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  const auto gen = sack_->policy_generation();
  const auto before = sack_->avc().stats();

  // normal -> calm grants exactly the same permission set: the APE must not
  // rebuild, bump the generation, or flush the AVC.
  auto outcome = sack_->deliver_event("traffic_clear");
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->transitioned);
  EXPECT_EQ(sack_->current_state_name(), "calm");
  EXPECT_EQ(sack_->policy_generation(), gen);
  EXPECT_EQ(sack_->avc().stats().invalidations, before.invalidations);

  // Cached verdicts stay warm across the enforcement-neutral transition.
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  EXPECT_GT(sack_->avc().stats().hits, before.hits);

  // A transition that does change permissions still bumps as usual.
  ASSERT_TRUE(sack_->deliver_event("traffic_dense").ok());
  ASSERT_TRUE(sack_->deliver_event("crash_detected").ok());
  EXPECT_GT(sack_->policy_generation(), gen);
}

TEST_F(AvcModuleTest, DisabledAvcStillEnforcesCorrectly) {
  sack_->set_avc(false);
  ASSERT_TRUE(sack_->deliver_event("crash_detected").ok());
  Process p(kernel_, rescue());
  EXPECT_TRUE(p.open("/dev/door", OpenFlags::write).ok());
  ASSERT_TRUE(sack_->deliver_event("emergency_cleared").ok());
  EXPECT_EQ(p.open("/dev/door", OpenFlags::write).error(), Errno::eacces);
  EXPECT_EQ(sack_->avc().stats().hits, 0u);
}

TEST_F(AvcModuleTest, StatusReportsAvcCounters) {
  Process p(kernel_, rescue());
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  ASSERT_TRUE(p.read_file("/var/media/track.pcm").ok());
  auto status = sack_->status_text();
  EXPECT_NE(status.find("avc_enabled: yes"), std::string::npos);
  EXPECT_NE(status.find("avc_hits: "), std::string::npos);
  EXPECT_NE(status.find("avc_hit_rate: "), std::string::npos);
  EXPECT_NE(status.find("avc_invalidations: "), std::string::npos);
}

// --- concurrency: readers racing transitions (TSan hunts the races) ---

constexpr std::string_view kStressPolicy = R"(
states { a = 0; b = 1; }
initial a;
transitions { a -> b on flip; b -> a on flop; }
permissions { PA; PB; }
state_per { a: PA; b: PB; }
per_rules {
  PA {
    allow * /shared/** read;
    allow * /data/a_* read;
  }
  PB {
    allow * /shared/** read;
    allow * /data/b_* read;
    deny * /shared/secret read;
  }
}
)";

TEST(AvcStressTest, ConcurrentChecksRaceActivations) {
  auto parsed = parse_policy(kStressPolicy);
  ASSERT_TRUE(parsed.ok());

  DfaRuleSet rules;
  (void)rules.load(parsed.policy);
  rules.activate({"PA"});

  AccessVectorCache avc(/*capacity=*/512);
  std::atomic<std::uint64_t> generation{1};
  std::atomic<bool> stop{false};

  // Transition storm: alternate the active permission set, with the same
  // publish -> bump -> flush ordering the APE uses, until every reader has
  // finished its fixed workload (so readers and the storm always overlap).
  std::thread writer([&] {
    for (std::uint64_t i = 1; !stop.load(std::memory_order_relaxed); ++i) {
      rules.activate(i % 2 ? std::vector<std::string>{"PB"}
                           : std::vector<std::string>{"PA"});
      generation.fetch_add(1, std::memory_order_release);
      avc.invalidate_all();
    }
  });

  // Invariants that hold in *both* states, so readers can assert them at
  // any point during the storm: /shared/doc is readable everywhere,
  // unguarded paths are always ok.
  constexpr int kReaders = 4;
  constexpr int kIterations = 3000;
  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const std::string exe = "/usr/bin/app_" + std::to_string(t);
      const std::string scratch = "/tmp/scratch_" + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        for (const auto& [path, expect_ok] :
             {std::pair<std::string_view, bool>{"/shared/doc", true},
              {scratch, true}}) {
          AccessQuery q = make_query(exe, path, MacOp::read);
          // The same probe-then-match dance as SackModule::check_op.
          const std::uint64_t gen = generation.load(std::memory_order_acquire);
          Errno rc;
          if (auto cached = avc.probe(q, gen)) {
            rc = *cached;
          } else {
            rc = rules.check(q);
            avc.insert(q, gen, rc);
          }
          if (expect_ok && rc != Errno::ok)
            violations.fetch_add(1, std::memory_order_relaxed);
        }
        // State-dependent traffic: verdict flips with the storm; only the
        // absence of crashes/races is asserted (TSan does the heavy
        // lifting), plus the verdict domain.
        AccessQuery q = make_query(exe, "/shared/secret", MacOp::read);
        const std::uint64_t gen = generation.load(std::memory_order_acquire);
        Errno rc;
        if (auto cached = avc.probe(q, gen)) {
          rc = *cached;
        } else {
          rc = rules.check(q);
          avc.insert(q, gen, rc);
        }
        if (rc != Errno::ok && rc != Errno::eacces)
          violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (auto& th : readers) th.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(violations.load(), 0u);
  const auto s = avc.stats();
  EXPECT_GT(s.hits + s.misses, 0u);
  EXPECT_GE(s.invalidations, 1u);
}

TEST(AvcStressTest, ConcurrentAvcInsertsStayBounded) {
  AccessVectorCache avc(/*capacity=*/256);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      const std::string exe = "/usr/bin/w" + std::to_string(t);
      for (int i = 0; i < 5000; ++i) {
        std::string path = "/obj/" + std::to_string(i % 997);
        AccessQuery q = make_query(exe, path, MacOp::read);
        if (!avc.probe(q, 1)) avc.insert(q, 1, Errno::ok);
        if (i % 1024 == 0) (void)avc.stats();
      }
    });
  }
  for (auto& th : workers) th.join();
  const auto s = avc.stats();
  EXPECT_LE(s.entries, s.capacity);
}

}  // namespace
}  // namespace sack::core
