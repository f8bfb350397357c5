// GlobDfa and DfaRuleSet: the table-driven matcher must be byte-for-byte
// decision-equivalent to the backtracking glob matcher and to the reference
// interpreter, including under concurrent mask-swap activation.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/policy_builder.h"
#include "core/ruleset.h"
#include "util/glob.h"
#include "util/glob_dfa.h"
#include "util/rng.h"
#include "verify/reference.h"

namespace sack::core {
namespace {

Glob glob(std::string_view pattern) {
  auto g = Glob::compile(pattern);
  EXPECT_TRUE(g.ok()) << pattern;
  return std::move(g).value();
}

GlobDfa build_dfa(const std::vector<Glob>& globs) {
  std::vector<const Glob*> ptrs;
  for (const auto& g : globs) ptrs.push_back(&g);
  auto dfa = GlobDfa::build(ptrs);
  EXPECT_TRUE(dfa.ok());
  return std::move(dfa).value();
}

TEST(GlobDfa, EmptyPatternSetMatchesNothing) {
  auto dfa = build_dfa({});
  EXPECT_EQ(dfa.pattern_count(), 0u);
  EXPECT_TRUE(dfa.match("/anything").none());
  EXPECT_TRUE(dfa.match("").none());
}

TEST(GlobDfa, LiteralPatterns) {
  auto dfa = build_dfa({glob("/etc/passwd"), glob("/etc/shadow")});
  EXPECT_TRUE(dfa.match("/etc/passwd").test(0));
  EXPECT_FALSE(dfa.match("/etc/passwd").test(1));
  EXPECT_TRUE(dfa.match("/etc/shadow").test(1));
  EXPECT_TRUE(dfa.match("/etc/group").none());
  EXPECT_TRUE(dfa.match("/etc/passwd2").none());
  EXPECT_TRUE(dfa.match("/etc/passw").none());
}

TEST(GlobDfa, StarDoesNotCrossSlash) {
  auto dfa = build_dfa({glob("/dev/door*")});
  EXPECT_TRUE(dfa.match("/dev/door0").test(0));
  EXPECT_TRUE(dfa.match("/dev/door").test(0));  // * matches empty
  EXPECT_TRUE(dfa.match("/dev/door123").test(0));
  EXPECT_TRUE(dfa.match("/dev/door0/lock").none());
}

TEST(GlobDfa, DeepStarCrossesSlash) {
  auto dfa = build_dfa({glob("/var/media/**")});
  EXPECT_TRUE(dfa.match("/var/media/a").test(0));
  EXPECT_TRUE(dfa.match("/var/media/a/b/c.pcm").test(0));
  EXPECT_TRUE(dfa.match("/var/media/").test(0));  // ** matches empty
  EXPECT_TRUE(dfa.match("/var/medias").none());
  EXPECT_TRUE(dfa.match("/var").none());
}

TEST(GlobDfa, CharClassAndQuestionMark) {
  auto dfa = build_dfa({glob("/dev/tty[0-9]"), glob("/dev/sd?")});
  EXPECT_TRUE(dfa.match("/dev/tty5").test(0));
  EXPECT_TRUE(dfa.match("/dev/ttyA").none());
  EXPECT_TRUE(dfa.match("/dev/sda").test(1));
  EXPECT_TRUE(dfa.match("/dev/sd/").none());  // ? never matches '/'
}

TEST(GlobDfa, OverlappingPatternsAccumulateMaskBits) {
  auto dfa = build_dfa(
      {glob("/var/media/**"), glob("/var/**"), glob("/var/media/a.pcm")});
  const auto& mask = dfa.match("/var/media/a.pcm");
  EXPECT_TRUE(mask.test(0));
  EXPECT_TRUE(mask.test(1));
  EXPECT_TRUE(mask.test(2));
  EXPECT_EQ(mask.count(), 3u);
  const auto& partial = dfa.match("/var/log/x");
  EXPECT_FALSE(partial.test(0));
  EXPECT_TRUE(partial.test(1));
}

TEST(GlobDfa, BraceAlternativesUnion) {
  auto dfa = build_dfa({glob("/opt/{app,tool}/bin/*")});
  EXPECT_TRUE(dfa.match("/opt/app/bin/x").test(0));
  EXPECT_TRUE(dfa.match("/opt/tool/bin/y").test(0));
  EXPECT_TRUE(dfa.match("/opt/other/bin/z").none());
}

TEST(GlobDfa, BuildBudgetFailsClosed) {
  // A tiny state budget must fail the build, not truncate the automaton.
  std::vector<Glob> globs = {glob("/var/media/**"), glob("/etc/passwd")};
  std::vector<const Glob*> ptrs;
  for (const auto& g : globs) ptrs.push_back(&g);
  GlobDfa::BuildLimits limits;
  limits.max_states = 3;
  auto dfa = GlobDfa::build(ptrs, limits);
  EXPECT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.error(), Errno::enomem);
}

// Deterministic corpus fuzz: the DFA must agree with Glob::matches on every
// (pattern set, path) pair, including hostile shapes — runs of stars,
// adjacent classes, escapes, and alternations.
TEST(GlobDfaFuzz, AgreesWithBacktrackingMatcher) {
  const std::vector<std::string> patterns = {
      "/a/**/b",          "/a/*/*/c",        "/**/**/x",
      "/x**y",            "/*[ab]*",         "/[^/x]?z",
      "/e\\*f",           "/{a,b}{c,d}g",    "/m/**",
      "/n/*",             "/[a-c][0-2]",     "/p?[qr]*s",
      "/**",              "/*",              "/q/{one,two/**}",
      "/r/a*a*a*b",       "/s/[abc]**[xyz]", "/t/\\[lit\\]",
  };
  std::vector<Glob> globs;
  for (const auto& p : patterns) globs.push_back(glob(p));
  auto dfa = build_dfa(globs);

  const std::string alphabet = "ab/cxyz*?[0q";
  Rng rng(0xDFAF);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string path = "/";
    const std::size_t len = rng.below(12);
    for (std::size_t i = 0; i < len; ++i)
      path += alphabet[rng.below(alphabet.size())];
    const auto& mask = dfa.match(path);
    for (std::size_t p = 0; p < globs.size(); ++p) {
      EXPECT_EQ(mask.test(p), globs[p].matches(path))
          << "pattern '" << patterns[p] << "' path '" << path << "'";
    }
  }
}

// --- DfaRuleSet semantics ---

SackPolicy demo_policy() {
  PolicyBuilder b;
  b.state("normal", 0)
      .state("emergency", 1)
      .initial("normal")
      .transition("normal", "crash", "emergency")
      .permission("MEDIA")
      .permission("DOORS")
      .grant("normal", "MEDIA")
      .grant("emergency", "MEDIA")
      .grant("emergency", "DOORS")
      .allow("MEDIA", "*", "/var/media/**", MacOp::read)
      .allow("DOORS", "/usr/bin/rescue", "/dev/door*",
             MacOp::ioctl | MacOp::write)
      .deny("DOORS", "*", "/dev/door9", MacOp::ioctl);
  return b.build();
}

AccessQuery query(std::string_view exe, std::string_view obj, MacOp op) {
  AccessQuery q;
  q.subject_exe = exe;
  q.object_path = obj;
  q.op = op;
  return q;
}

TEST(DfaRuleSet, CompilesDemoPolicyToTable) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  EXPECT_TRUE(rs.table_driven());
  EXPECT_EQ(rs.total_rule_count(), 3u);
}

TEST(DfaRuleSet, UnguardedObjectsAlwaysAllowed) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({});
  EXPECT_EQ(rs.check(query("/bin/x", "/etc/passwd", MacOp::read)), Errno::ok);
  EXPECT_FALSE(rs.guarded("/etc/passwd"));
  EXPECT_TRUE(rs.guarded("/var/media/track.pcm"));
  EXPECT_TRUE(rs.guarded("/dev/door0"));
}

TEST(DfaRuleSet, GuardedDenyByDefaultAndDenyPrecedence) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA"});
  EXPECT_EQ(rs.check(query("/usr/bin/rescue", "/dev/door0", MacOp::ioctl)),
            Errno::eacces);
  EXPECT_EQ(rs.check(query("/bin/app", "/var/media/t.pcm", MacOp::read)),
            Errno::ok);
  EXPECT_EQ(rs.check(query("/bin/app", "/var/media/t.pcm", MacOp::write)),
            Errno::eacces);
  rs.activate({"DOORS"});
  EXPECT_EQ(rs.check(query("/usr/bin/rescue", "/dev/door9", MacOp::ioctl)),
            Errno::eacces);
  EXPECT_EQ(rs.check(query("/usr/bin/rescue", "/dev/door9", MacOp::write)),
            Errno::ok);
}

TEST(DfaRuleSet, ActivationIsMaskSwap) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA", "DOORS"});
  EXPECT_EQ(rs.check(query("/usr/bin/rescue", "/dev/door0", MacOp::ioctl)),
            Errno::ok);
  // Subject must match.
  EXPECT_EQ(rs.check(query("/usr/bin/evil", "/dev/door0", MacOp::ioctl)),
            Errno::eacces);
  EXPECT_EQ(rs.active_rule_count(), 3u);
  const std::uint64_t gen = rs.label_generation();
  rs.activate({"MEDIA"});
  EXPECT_EQ(rs.check(query("/usr/bin/rescue", "/dev/door0", MacOp::ioctl)),
            Errno::eacces);
  EXPECT_EQ(rs.active_rule_count(), 1u);
  // activate() must not disturb the label numbering: labels survive storms.
  EXPECT_EQ(rs.label_generation(), gen);
}

TEST(DfaRuleSet, LabelsSurviveActivationAndDieOnLoad) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA"});
  const std::uint64_t gen = rs.label_generation();
  ASSERT_NE(gen, 0u);
  auto label = rs.resolve_label("/var/media/t.pcm");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(rs.check_labeled(query("/bin/app", "/var/media/t.pcm", MacOp::read),
                             *label, gen),
            Errno::ok);
  rs.activate({});
  EXPECT_EQ(rs.check_labeled(query("/bin/app", "/var/media/t.pcm", MacOp::read),
                             *label, gen),
            Errno::eacces);
  // A reload renumbers rules; the stale generation must force a recompute,
  // not an intersection against the wrong bits.
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA"});
  EXPECT_NE(rs.label_generation(), gen);
  EXPECT_EQ(rs.check_labeled(query("/bin/app", "/var/media/t.pcm", MacOp::read),
                             *label, gen),
            Errno::ok);
}

TEST(DfaRuleSet, LabelGenerationsAreProcessUnique) {
  // Labels get parked on inodes that several module/rule-set instances can
  // share (stacked modules, one VFS) under the same module name. If each
  // instance counted generations from 1, instance B could hit a label
  // resolved under instance A's rule numbering — so generations come from
  // one process-wide counter and never collide.
  DfaRuleSet a;
  DfaRuleSet b;
  a.load(demo_policy());
  b.load(demo_policy());
  EXPECT_NE(a.label_generation(), 0u);
  EXPECT_NE(b.label_generation(), 0u);
  EXPECT_NE(a.label_generation(), b.label_generation());
}

TEST(DfaRuleSet, ResolvedLabelsOwnTheirBits) {
  // A resolved label can sit on an inode indefinitely; it must own its mask
  // rather than alias the Program's DFA storage, or every stale inode label
  // would pin a whole retired policy across loads.
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA"});
  const std::uint64_t gen = rs.label_generation();
  auto label = rs.resolve_label("/var/media/t.pcm");
  ASSERT_NE(label, nullptr);
  EXPECT_TRUE(label->any());
  // Retire the Program the label was resolved from.
  (void)rs.load(SackPolicy{});
  // The label's storage is still the holder's to read, and the stale stamp
  // forces a recompute (empty policy: everything unguarded).
  EXPECT_TRUE(label->any());
  EXPECT_EQ(rs.check_labeled(query("/bin/app", "/var/media/t.pcm", MacOp::read),
                             *label, gen),
            Errno::ok);
}

TEST(DfaRuleSet, BatchCheckOpsMatchesScalar) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA", "DOORS"});
  std::vector<AccessQuery> queries = {
      query("/bin/app", "/var/media/t.pcm", MacOp::read),
      query("/bin/app", "/var/media/t.pcm", MacOp::write),
      query("/usr/bin/rescue", "/dev/door0", MacOp::ioctl),
      query("/usr/bin/rescue", "/dev/door9", MacOp::ioctl),
      query("/bin/x", "/etc/passwd", MacOp::read),
  };
  std::vector<Errno> verdicts(queries.size());
  rs.check_ops(queries, verdicts);
  for (std::size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(verdicts[i], rs.check(queries[i])) << i;
}

TEST(DfaRuleSet, EquivalentToReferenceOnRandomQueries) {
  const SackPolicy policy = demo_policy();
  DfaRuleSet dfa;
  (void)dfa.load(policy);
  const verify::ReferenceInterpreter reference(policy);

  const std::vector<std::vector<std::string>> activations = {
      {}, {"MEDIA"}, {"DOORS"}, {"MEDIA", "DOORS"}};
  const std::vector<std::string> exes = {"/bin/app", "/usr/bin/rescue",
                                         "/usr/bin/evil"};
  const std::vector<std::string> objects = {
      "/var/media/t.pcm", "/var/media/a/b/c", "/var/medias", "/dev/door0",
      "/dev/door9",       "/dev/door",        "/etc/passwd", "/var/media/"};
  const std::vector<MacOp> ops = {MacOp::read, MacOp::write, MacOp::ioctl,
                                  MacOp::exec};
  for (const auto& perms : activations) {
    dfa.activate(perms);
    for (const auto& exe : exes)
      for (const auto& obj : objects)
        for (MacOp op : ops)
          EXPECT_EQ(dfa.check(query(exe, obj, op)),
                    reference.decide_with_permissions(perms,
                                                      query(exe, obj, op)))
              << exe << " " << obj << " op=" << mac_op_name(op);
  }
}

// Mask-swap activate() racing check() and check_labeled(): every verdict a
// reader computes must be consistent with SOME activation (never a torn mix),
// and the run must be TSan-clean (this suite is in the TSan CI regex).
TEST(DfaRuleSetMt, ActivateRacesCheck) {
  DfaRuleSet rs;
  (void)rs.load(demo_policy());
  rs.activate({"MEDIA"});
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) {
      rs.activate({"MEDIA", "DOORS"});
      rs.activate({"MEDIA"});
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      const std::uint64_t gen = rs.label_generation();
      auto door_label = rs.resolve_label("/dev/door0");
      while (!stop.load(std::memory_order_acquire)) {
        // Media read is allowed under every activation in this race.
        if (rs.check(query("/bin/app", "/var/media/t.pcm", MacOp::read)) !=
            Errno::ok)
          torn.fetch_add(1);
        // Door ioctl flips between ok/eacces: both are legal, einval is not.
        const Errno rc =
            rs.check(query("/usr/bin/rescue", "/dev/door0", MacOp::ioctl));
        if (rc != Errno::ok && rc != Errno::eacces) torn.fetch_add(1);
        const Errno labeled = rs.check_labeled(
            query("/usr/bin/rescue", "/dev/door0", MacOp::ioctl), *door_label,
            gen);
        if (labeled != Errno::ok && labeled != Errno::eacces)
          torn.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_EQ(torn.load(), 0);
}

}  // namespace
}  // namespace sack::core
