// The rule engine against Algorithm 1: profile subjects, and the property
// that DfaRuleSet — on its table path and on its per-rule scan fallback —
// decides exactly what the reference interpreter decides.
#include <gtest/gtest.h>

#include "core/policy_builder.h"
#include "core/ruleset.h"
#include "util/rng.h"
#include "verify/reference.h"

namespace sack::core {
namespace {

AccessQuery query(std::string_view exe, std::string_view obj, MacOp op) {
  AccessQuery q;
  q.subject_exe = exe;
  q.object_path = obj;
  q.op = op;
  return q;
}

TEST(DfaRuleSet, ProfileSubjectMatching) {
  PolicyBuilder b;
  b.state("s", 0).initial("s").permission("P").grant("s", "P");
  b.allow("P", "@rescue", "/dev/door*", MacOp::ioctl);
  DfaRuleSet rs;
  (void)rs.load(b.build());
  rs.activate({"P"});
  AccessQuery q = query("/usr/bin/anything", "/dev/door0", MacOp::ioctl);
  EXPECT_EQ(rs.check(q), Errno::eacces);  // no profile info
  q.subject_profile = "rescue";
  EXPECT_EQ(rs.check(q), Errno::ok);
  q.subject_profile = "media";
  EXPECT_EQ(rs.check(q), Errno::eacces);
}

// Property: the compiled engine equals the linear reference scan of
// Algorithm 1 (verify::ReferenceInterpreter) on every query, across
// randomized policies, activations and queries, through every decision
// entry point. The same policy also runs under a two-state DFA budget, so
// the per-rule scan fallback is held to the same reference.
class RuleSetEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuleSetEquivalence, CompiledEqualsLinear) {
  Rng rng(GetParam());

  // Random policy: a handful of permissions with randomized rules.
  PolicyBuilder b;
  b.state("s0", 0).state("s1", 1).initial("s0");
  b.transition("s0", "go", "s1");
  const char* objects[] = {"/a/lit1", "/a/lit2",   "/b/file",
                           "/a/*",    "/b/**",     "/dev/node[0-5]"};
  const char* subjects[] = {"*", "/bin/app1", "/bin/app2", "/bin/*"};
  const MacOp ops[] = {MacOp::read, MacOp::write, MacOp::ioctl,
                       MacOp::read | MacOp::write};
  std::vector<std::string> perms;
  for (int p = 0; p < 4; ++p) {
    std::string perm = "P" + std::to_string(p);
    b.permission(perm);
    if (rng.chance(0.7)) b.grant("s0", perm);
    if (rng.chance(0.7)) b.grant("s1", perm);
    int n_rules = 1 + static_cast<int>(rng.below(4));
    for (int r = 0; r < n_rules; ++r) {
      bool deny = rng.chance(0.25);
      const char* subject = subjects[rng.below(4)];
      const char* object = objects[rng.below(6)];
      MacOp op = ops[rng.below(4)];
      if (deny) {
        b.deny(perm, subject, object, op);
      } else {
        b.allow(perm, subject, object, op);
      }
    }
    perms.push_back(perm);
  }
  const SackPolicy policy = b.build();
  const verify::ReferenceInterpreter reference(policy);

  DfaRuleSet table;
  DfaRuleSet scan(GlobDfa::BuildLimits{2});
  (void)table.load(policy);
  (void)scan.load(policy);
  ASSERT_TRUE(table.table_driven());
  ASSERT_FALSE(scan.table_driven());

  const char* probe_objects[] = {"/a/lit1", "/a/lit2", "/a/other", "/b/file",
                                 "/b/deep/path", "/dev/node3", "/dev/node7",
                                 "/unrelated"};
  const char* probe_subjects[] = {"/bin/app1", "/bin/app2", "/bin/zzz",
                                  "/sbin/x"};
  const MacOp probe_ops[] = {MacOp::read, MacOp::write, MacOp::ioctl,
                             MacOp::exec};

  for (int round = 0; round < 20; ++round) {
    // Random activation set.
    std::vector<std::string> active;
    for (const auto& p : perms)
      if (rng.chance(0.5)) active.push_back(p);
    std::size_t want_active = 0;
    for (const auto& p : active) want_active += policy.per_rules.at(p).size();

    for (DfaRuleSet* rs : {&table, &scan}) {
      const char* engine = rs == &table ? "table" : "scan";
      rs->activate(active);
      ASSERT_EQ(rs->active_rule_count(), want_active) << engine;
      const std::uint64_t gen = rs->label_generation();

      std::vector<AccessQuery> batch;
      std::vector<Errno> batch_want;
      for (const char* obj : probe_objects) {
        EXPECT_EQ(rs->guarded(obj), reference.guarded(obj))
            << engine << " " << obj;
        const auto label = rs->resolve_label(obj);
        for (const char* subj : probe_subjects) {
          for (MacOp op : probe_ops) {
            const auto q = query(subj, obj, op);
            const Errno want = reference.decide_with_permissions(active, q);
            EXPECT_EQ(rs->check(q), want)
                << engine << " subject=" << subj << " object=" << obj
                << " op=" << mac_op_name(op);
            EXPECT_EQ(rs->check_labeled(q, *label, gen), want)
                << engine << " labeled subject=" << subj << " object=" << obj
                << " op=" << mac_op_name(op);
            batch.push_back(q);
            batch_want.push_back(want);
          }
        }
      }
      std::vector<Errno> batch_got(batch.size());
      rs->check_ops(batch, batch_got);
      EXPECT_EQ(batch_got, batch_want) << engine << " check_ops";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleSetEquivalence,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

}  // namespace
}  // namespace sack::core
