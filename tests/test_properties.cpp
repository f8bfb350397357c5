// Cross-cutting property tests: parser robustness under fuzzed input,
// stacking-as-conjunction, and the enforcement model equivalence between the
// SackModule (full kernel path) and Algorithm 1 (the reference interpreter).
#include <gtest/gtest.h>

#include "apparmor/parser.h"
#include "core/policy_builder.h"
#include "core/policy_parser.h"
#include "core/sack_module.h"
#include "kernel/process.h"
#include "te/te_policy.h"
#include "util/rng.h"
#include "verify/reference.h"

namespace sack {
namespace {

using kernel::Cred;
using kernel::Kernel;
using kernel::OpenFlags;
using kernel::Process;
using kernel::Task;

// --- fuzz: the parsers must never crash or hang, only report errors ---

std::string random_garbage(Rng& rng, std::size_t length) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyz0123456789_-/*{};:,.@#\"\\\n\t ()[]<>=!";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

// Token soup: syntactically plausible fragments in random order — much more
// likely to reach deep parser states than raw bytes.
std::string random_token_soup(Rng& rng, std::size_t tokens) {
  static constexpr const char* kTokens[] = {
      "states",    "initial",   "transitions", "events",  "permissions",
      "state_per", "per_rules", "allow",       "deny",    "on",
      "{",         "}",         ";",           ",",       ":",
      "->",        "=",         "*",           "@",       "read",
      "write",     "ioctl",     "exec",        "normal",  "emergency",
      "P1",        "0",         "42",          "/dev/x*", "/var/**",
      "profile",   "capability", "network",    "deny",    "r",
      "rw",        "type",      "filecon",     "domain_transition",
  };
  std::string out;
  for (std::size_t i = 0; i < tokens; ++i) {
    out += kTokens[rng.below(std::size(kTokens))];
    out += rng.chance(0.8) ? " " : "\n";
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, SackPolicyParserNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    auto garbage = random_garbage(rng, 40 + rng.below(400));
    (void)core::parse_policy(garbage);
    auto soup = random_token_soup(rng, 10 + rng.below(120));
    (void)core::parse_policy(soup);
  }
}

TEST_P(ParserFuzz, AppArmorProfileParserNeverCrashes) {
  Rng rng(GetParam() ^ 0xaaaau);
  for (int i = 0; i < 50; ++i) {
    (void)apparmor::parse_profiles(random_garbage(rng, 40 + rng.below(400)));
    (void)apparmor::parse_profiles(
        random_token_soup(rng, 10 + rng.below(120)));
  }
}

TEST_P(ParserFuzz, TePolicyParserNeverCrashes) {
  Rng rng(GetParam() ^ 0x5555u);
  for (int i = 0; i < 50; ++i) {
    (void)te::parse_te_policy(random_garbage(rng, 40 + rng.below(400)));
    (void)te::parse_te_policy(random_token_soup(rng, 10 + rng.below(120)));
  }
}

TEST_P(ParserFuzz, ValidPoliciesSurviveMutationOrFailCleanly) {
  // Mutate a valid policy at one random position; the parser must either
  // accept it or produce diagnostics — never crash.
  Rng rng(GetParam() ^ 0x1234u);
  const std::string base = R"(
states { normal = 0; emergency = 1; }
initial normal;
transitions { normal -> emergency on crash; }
permissions { P; }
state_per { emergency: P; }
per_rules { P { allow * /dev/door* write ioctl; } }
)";
  for (int i = 0; i < 200; ++i) {
    std::string mutated = base;
    std::size_t pos = rng.below(mutated.size());
    char c = static_cast<char>(32 + rng.below(95));
    if (rng.chance(0.3)) {
      mutated.erase(pos, 1);
    } else if (rng.chance(0.5)) {
      mutated[pos] = c;
    } else {
      mutated.insert(pos, 1, c);
    }
    auto parsed = core::parse_policy(mutated);
    if (parsed.ok()) {
      // If it still parses, the checker must be able to run on it too.
      (void)core::check_policy(parsed.policy);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// --- property: LSM stacking decisions are the conjunction of modules ---

TEST(StackingProperty, StackedDecisionEqualsConjunction) {
  // Build the same world twice: once with SACK only, once with SACK followed
  // by a second denying module; the stacked verdict must equal AND.
  class DenyListModule : public kernel::SecurityModule {
   public:
    std::string_view name() const override { return "denylist"; }
    Errno file_open(Task&, const std::string& path, const kernel::Inode&,
                    kernel::AccessMask) override {
      return path.find("forbidden") == std::string::npos ? Errno::ok
                                                         : Errno::eacces;
    }
  };

  auto build = [](bool with_denylist) {
    auto kernel = std::make_unique<Kernel>();
    auto* sack_module = static_cast<core::SackModule*>(kernel->add_lsm(
        std::make_unique<core::SackModule>(core::SackMode::independent)));
    if (with_denylist)
      kernel->add_lsm(std::make_unique<DenyListModule>());
    Process admin(*kernel, kernel->init_task());
    (void)admin.write_file("/data_forbidden", "x");
    (void)admin.write_file("/data_plain", "x");
    (void)admin.write_file("/data_guarded", "x");
    core::PolicyBuilder b;
    b.state("s", 0).initial("s").permission("P").grant("s", "P");
    b.allow("P", "*", "/data_guarded", core::MacOp::read);
    EXPECT_TRUE(sack_module->load_policy(b.build()).ok());
    return kernel;
  };

  auto solo = build(false);
  auto stacked = build(true);
  Task& solo_task = solo->spawn_task("t", Cred::root(), "/bin/t");
  Task& stacked_task = stacked->spawn_task("t", Cred::root(), "/bin/t");

  for (const char* path :
       {"/data_forbidden", "/data_plain", "/data_guarded"}) {
    bool sack_allows =
        solo->sys_open(solo_task, path, OpenFlags::read).ok();
    bool denylist_allows = std::string_view(path).find("forbidden") ==
                           std::string_view::npos;
    bool stacked_allows =
        stacked->sys_open(stacked_task, path, OpenFlags::read).ok();
    EXPECT_EQ(stacked_allows, sack_allows && denylist_allows) << path;
  }
}

// --- property: the kernel-path decision equals the reference model ---

class ModuleModelEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ModuleModelEquivalence, FileOpenMatchesRuleSetModel) {
  Rng rng(GetParam());

  // Random policy over a fixed object universe.
  const char* objects[] = {"/obj/a", "/obj/b", "/obj/sub/c", "/obj/*",
                           "/obj/sub/**"};
  const char* subjects[] = {"*", "/bin/app1", "/bin/app2"};
  core::PolicyBuilder b;
  b.state("s0", 0).state("s1", 1).initial("s0");
  b.transition("s0", "go", "s1").transition("s1", "back", "s0");
  for (int p = 0; p < 3; ++p) {
    std::string perm = "P" + std::to_string(p);
    b.permission(perm);
    if (rng.chance(0.6)) b.grant("s0", perm);
    if (rng.chance(0.6)) b.grant("s1", perm);
    int n = 1 + static_cast<int>(rng.below(3));
    for (int r = 0; r < n; ++r) {
      core::MacOp op = rng.chance(0.5) ? core::MacOp::read : core::MacOp::write;
      if (rng.chance(0.2)) {
        b.deny(perm, subjects[rng.below(3)], objects[rng.below(5)], op);
      } else {
        b.allow(perm, subjects[rng.below(3)], objects[rng.below(5)], op);
      }
    }
  }
  auto policy = b.build();

  // Kernel with the module.
  Kernel kernel;
  auto* sack_module = static_cast<core::SackModule*>(kernel.add_lsm(
      std::make_unique<core::SackModule>(core::SackMode::independent)));
  kernel.vfs().mkdir_p("/obj/sub");
  Process admin(kernel, kernel.init_task());
  const char* concrete[] = {"/obj/a", "/obj/b", "/obj/sub/c", "/obj/zz",
                            "/obj/sub/deep"};
  for (const char* path : concrete) (void)admin.write_file(path, "x");
  ASSERT_TRUE(sack_module->load_policy(policy).ok());

  // Algorithm 1, straight from the policy.
  const verify::ReferenceInterpreter model(policy);

  Task& app1 = kernel.spawn_task("app1", Cred::root(), "/bin/app1");
  Task& app2 = kernel.spawn_task("app2", Cred::root(), "/bin/app2");

  const char* state = "s0";
  for (int round = 0; round < 30; ++round) {
    for (Task* task : {&app1, &app2}) {
      for (const char* path : concrete) {
        for (auto [flags, op] :
             {std::pair{OpenFlags::read, core::MacOp::read},
              std::pair{OpenFlags::write, core::MacOp::write}}) {
          core::AccessQuery q;
          q.subject_exe = task->exe_path();
          q.object_path = path;
          q.op = op;
          bool model_allows = model.decide(state, q) == Errno::ok;
          auto fd = kernel.sys_open(*task, path, flags);
          EXPECT_EQ(fd.ok(), model_allows)
              << "state=" << state << " exe=" << task->exe_path()
              << " path=" << path << " op=" << core::mac_op_name(op);
          if (fd.ok()) (void)kernel.sys_close(*task, *fd);
        }
      }
    }
    // Random walk of the two-state machine.
    if (rng.chance(0.5)) {
      bool at_s0 = std::string_view(state) == "s0";
      ASSERT_TRUE(sack_module->deliver_event(at_s0 ? "go" : "back").ok());
      state = at_s0 ? "s1" : "s0";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModuleModelEquivalence,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u));

// --- property: randomly built policies round-trip through the language ---

class PolicyRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PolicyRoundTrip, BuilderToTextToParserIsIdentity) {
  Rng rng(GetParam());
  core::PolicyBuilder b;
  int n_states = 2 + static_cast<int>(rng.below(6));
  for (int i = 0; i < n_states; ++i)
    b.state("state_" + std::to_string(i), i);
  b.initial("state_0");
  int n_events = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < n_events; ++e) {
    b.transition("state_" + std::to_string(rng.below(n_states)),
                 "event_" + std::to_string(e),
                 "state_" + std::to_string(rng.below(n_states)));
  }
  const char* subjects[] = {"*", "@some_profile", "/usr/bin/app*"};
  const char* objects[] = {"/dev/x", "/var/data/**", "/etc/conf?",
                           "/opt/{a,b}/lib"};
  const core::MacOp op_choices[] = {
      core::MacOp::read, core::MacOp::write | core::MacOp::ioctl,
      core::MacOp::exec | core::MacOp::getattr,
      core::MacOp::create | core::MacOp::unlink | core::MacOp::rename};
  int n_perms = 1 + static_cast<int>(rng.below(4));
  for (int p = 0; p < n_perms; ++p) {
    std::string perm = "PERM_" + std::to_string(p);
    b.permission(perm);
    b.grant("state_" + std::to_string(rng.below(n_states)), perm);
    int n_rules = 1 + static_cast<int>(rng.below(3));
    for (int r = 0; r < n_rules; ++r) {
      if (rng.chance(0.2)) {
        b.deny(perm, subjects[rng.below(3)], objects[rng.below(4)],
               op_choices[rng.below(4)]);
      } else {
        b.allow(perm, subjects[rng.below(3)], objects[rng.below(4)],
                op_choices[rng.below(4)]);
      }
    }
  }
  core::SackPolicy original = b.build();

  std::string text = original.to_text();
  auto reparsed = core::parse_policy(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  const core::SackPolicy& round = reparsed.policy;

  EXPECT_EQ(round.initial_state, original.initial_state);
  ASSERT_EQ(round.states.size(), original.states.size());
  for (std::size_t i = 0; i < original.states.size(); ++i) {
    EXPECT_EQ(round.states[i].name, original.states[i].name);
    EXPECT_EQ(round.states[i].encoding, original.states[i].encoding);
  }
  ASSERT_EQ(round.transitions.size(), original.transitions.size());
  EXPECT_EQ(round.permissions, original.permissions);
  EXPECT_EQ(round.state_per, original.state_per);
  ASSERT_EQ(round.per_rules.size(), original.per_rules.size());
  for (const auto& [perm, rules] : original.per_rules) {
    const auto& round_rules = round.per_rules.at(perm);
    ASSERT_EQ(round_rules.size(), rules.size()) << perm;
    for (std::size_t i = 0; i < rules.size(); ++i) {
      EXPECT_EQ(round_rules[i].effect, rules[i].effect);
      EXPECT_EQ(round_rules[i].subject_kind, rules[i].subject_kind);
      EXPECT_EQ(round_rules[i].subject_text, rules[i].subject_text);
      EXPECT_EQ(round_rules[i].object.pattern(), rules[i].object.pattern());
      EXPECT_EQ(round_rules[i].ops, rules[i].ops);
    }
  }
  // And the dump is a fixed point of dump-parse-dump.
  EXPECT_EQ(round.to_text(), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyRoundTrip,
                         ::testing::Values(1u, 7u, 19u, 29u, 43u, 61u, 83u,
                                           97u));

// --- glob containment property: '**' dominates '*' ---

TEST(GlobProperty, DoubleStarDominatesSingleStar) {
  Rng rng(99);
  const char* prefixes[] = {"/a", "/a/b", "/x/y/z"};
  for (int i = 0; i < 300; ++i) {
    std::string prefix = prefixes[rng.below(3)];
    auto single = Glob::compile(prefix + "/*");
    auto dbl = Glob::compile(prefix + "/**");
    ASSERT_TRUE(single.ok() && dbl.ok());
    // Random path under a random prefix.
    std::string path = prefixes[rng.below(3)];
    int depth = 1 + static_cast<int>(rng.below(3));
    for (int d = 0; d < depth; ++d) {
      path += "/";
      path += static_cast<char>('a' + rng.below(26));
    }
    if (single->matches(path)) {
      EXPECT_TRUE(dbl->matches(path)) << path << " vs " << prefix;
    }
  }
}

}  // namespace
}  // namespace sack
