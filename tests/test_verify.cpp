// Tests for the policy verification subsystem (src/verify): model checker,
// query language, reference interpreter, universe generation, differential
// oracle, and the verifier front-end that funnels everything into findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/policy_builder.h"
#include "core/policy_parser.h"
#include "verify/model_checker.h"
#include "verify/oracle.h"
#include "verify/query.h"
#include "verify/reference.h"
#include "verify/report.h"
#include "verify/subsume.h"
#include "verify/universe.h"
#include "verify/verifier.h"

#ifndef SACK_POLICY_DIR
#define SACK_POLICY_DIR "policies"
#endif

namespace sack::verify {
namespace {

using core::MacOp;
using core::PolicyBuilder;

std::string read_policy_file(const std::string& name) {
  std::ifstream in(std::string(SACK_POLICY_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << "cannot open " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The seeded-escalation shape: a door-override write reachable only through
// parked -> driving -> emergency.
core::SackPolicy escalation_policy() {
  return PolicyBuilder()
      .state("parked", 0)
      .state("driving", 1)
      .state("emergency", 2)
      .initial("parked")
      .transition("parked", "start_driving", "driving")
      .transition("driving", "crash_detected", "emergency")
      .transition("emergency", "emergency_cleared", "parked")
      .permission("DIAG_BASE")
      .permission("DOOR_OVERRIDE")
      .grant("parked", "DIAG_BASE")
      .grant("driving", "DIAG_BASE")
      .grant("emergency", "DIAG_BASE")
      .grant("emergency", "DOOR_OVERRIDE")
      .allow("DIAG_BASE", "*", "/var/diag/**", MacOp::read)
      .allow("DOOR_OVERRIDE", "/usr/bin/rescue_daemon", "/dev/vehicle/door*",
             MacOp::write | MacOp::ioctl)
      .build();
}

// ---------------------------------------------------------------- traces --

TEST(ModelChecker, ReachesAllStatesWithShortestTraces) {
  auto policy = escalation_policy();
  ModelChecker checker(policy);
  const auto& reachable = checker.reachable();
  ASSERT_EQ(reachable.size(), 3u);
  EXPECT_EQ(reachable[0].state, "parked");
  EXPECT_TRUE(reachable[0].trace.empty());
  EXPECT_EQ(reachable[1].state, "driving");
  ASSERT_EQ(reachable[1].trace.size(), 1u);
  EXPECT_EQ(reachable[1].trace[0].to_string(),
            "parked -[start_driving]-> driving");
  EXPECT_EQ(reachable[2].state, "emergency");
  ASSERT_EQ(reachable[2].trace.size(), 2u);
  EXPECT_EQ(reachable[2].trace[1].to_string(),
            "driving -[crash_detected]-> emergency");
}

TEST(ModelChecker, UnreachableStateIsOmitted) {
  auto policy = PolicyBuilder()
                    .state("a", 0)
                    .state("island", 1)
                    .initial("a")
                    .permission("P")
                    .grant("a", "P")
                    .allow("P", "*", "/d/f", MacOp::read)
                    .build();
  ModelChecker checker(policy);
  ASSERT_EQ(checker.reachable().size(), 1u);
  EXPECT_EQ(checker.reachable()[0].state, "a");
}

TEST(ModelChecker, TimedTransitionIsAnEdge) {
  auto policy = PolicyBuilder()
                    .state("hot", 0)
                    .state("cool", 1)
                    .initial("hot")
                    .timed_transition("hot", 250, "cool")
                    .permission("P")
                    .grant("hot", "P")
                    .allow("P", "*", "/d/f", MacOp::read)
                    .build();
  ModelChecker checker(policy);
  ASSERT_EQ(checker.reachable().size(), 2u);
  ASSERT_EQ(checker.reachable()[1].trace.size(), 1u);
  EXPECT_EQ(checker.reachable()[1].trace[0].to_string(),
            "hot -[after 250ms]-> cool");
}

TEST(ModelChecker, WatchdogFailsafeIsAnEdgeFromEveryState) {
  // lockdown has no inbound event transition at all: only the watchdog
  // reaches it, so a checker that ignores the failsafe edge calls it
  // unreachable.
  auto policy = PolicyBuilder()
                    .state("normal", 0)
                    .state("lockdown", 1)
                    .initial("normal")
                    .watchdog(2000, "lockdown")
                    .transition("lockdown", "sds_recovered", "normal")
                    .permission("P")
                    .grant("normal", "P")
                    .allow("P", "*", "/d/f", MacOp::read)
                    .build();
  ModelChecker checker(policy);
  ASSERT_EQ(checker.reachable().size(), 2u);
  EXPECT_EQ(checker.reachable()[1].state, "lockdown");
  ASSERT_EQ(checker.reachable()[1].trace.size(), 1u);
  EXPECT_EQ(checker.reachable()[1].trace[0].to_string(),
            "normal -[watchdog timeout 2000ms]-> lockdown");
}

// ---------------------------------------------------------------- grants --

TEST(ModelChecker, FindGrantReturnsShortestEscalationTrace) {
  auto policy = escalation_policy();
  ModelChecker checker(policy);
  AccessRequest request;
  request.subject_exe = "/usr/bin/rescue_daemon";
  request.object = "/dev/vehicle/door0";
  request.ops = MacOp::write;
  auto grant = checker.find_grant(request);
  ASSERT_TRUE(grant.has_value());
  EXPECT_EQ(grant->state, "emergency");
  EXPECT_EQ(grant->op, MacOp::write);
  ASSERT_EQ(grant->trace.size(), 2u);
  EXPECT_EQ(format_trace(grant->trace),
            "parked -[start_driving]-> driving; "
            "driving -[crash_detected]-> emergency");
}

TEST(ModelChecker, FindGrantNulloptWhenNeverGranted) {
  auto policy = escalation_policy();
  ModelChecker checker(policy);
  AccessRequest request;
  request.subject_exe = "/usr/bin/media_app";  // not the rescue daemon
  request.object = "/dev/vehicle/door0";
  request.ops = MacOp::write;
  EXPECT_FALSE(checker.find_grant(request).has_value());
}

TEST(ModelChecker, PrivilegeDiffReportsEscalation) {
  auto policy = escalation_policy();
  ModelChecker checker(policy);
  auto universe = build_universe(policy);
  auto diffs = checker.privilege_diffs(universe);
  // driving has the same grants as parked -> only emergency differs.
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].state, "emergency");
  ASSERT_EQ(diffs[0].permissions_added.size(), 1u);
  EXPECT_EQ(diffs[0].permissions_added[0], "DOOR_OVERRIDE");
  EXPECT_TRUE(diffs[0].permissions_removed.empty());
  EXPECT_FALSE(diffs[0].escalations.empty());
  bool found_door = false;
  for (const auto& g : diffs[0].escalations) {
    if (g.subject.exe == "/usr/bin/rescue_daemon" &&
        g.object.rfind("/dev/vehicle/door", 0) == 0) {
      found_door = true;
    }
  }
  EXPECT_TRUE(found_door);
}

// --------------------------------------------------------------- queries --

TEST(QueryParser, ParsesAllStatementForms) {
  auto result = parse_queries(
      "# comment\n"
      "never allow /usr/bin/app /dev/vehicle/door* write ioctl;\n"
      "can @rescue /var/diag/boot.log read;\n"
      "reach emergency;\n"
      "never allow * /etc/shadow read;\n");
  ASSERT_TRUE(result.ok()) << result.errors[0].to_string();
  ASSERT_EQ(result.queries.size(), 4u);

  EXPECT_EQ(result.queries[0].kind, Query::Kind::never_allow);
  EXPECT_EQ(result.queries[0].subject, "/usr/bin/app");
  EXPECT_EQ(result.queries[0].object, "/dev/vehicle/door*");
  EXPECT_EQ(result.queries[0].ops, MacOp::write | MacOp::ioctl);

  EXPECT_EQ(result.queries[1].kind, Query::Kind::can);
  EXPECT_EQ(result.queries[1].subject, "@rescue");
  EXPECT_EQ(result.queries[1].ops, MacOp::read);

  EXPECT_EQ(result.queries[2].kind, Query::Kind::reach);
  EXPECT_EQ(result.queries[2].state, "emergency");

  EXPECT_EQ(result.queries[3].subject, "*");
}

TEST(QueryParser, RejectsUnknownStatement) {
  auto result = parse_queries("forbid * /x read;\n");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.queries.empty());
}

TEST(QueryParser, RejectsUnknownOp) {
  auto result = parse_queries("never allow * /x levitate;\n");
  EXPECT_FALSE(result.ok());
}

TEST(QueryParser, RejectsMissingSemicolon) {
  auto result = parse_queries("reach emergency\nreach normal;\n");
  EXPECT_FALSE(result.ok());
}

// ------------------------------------------------------------- reference --

TEST(ReferenceInterpreter, UnguardedObjectIsOk) {
  auto policy = escalation_policy();
  ReferenceInterpreter ref(policy);
  EXPECT_FALSE(ref.guarded("/unrelated/path"));
  core::AccessQuery q;
  q.subject_exe = "/usr/bin/anything";
  q.object_path = "/unrelated/path";
  q.op = MacOp::write;
  EXPECT_EQ(ref.decide("parked", q), Errno::ok);
}

TEST(ReferenceInterpreter, GuardedDefaultDenyAndStateDependence) {
  auto policy = escalation_policy();
  ReferenceInterpreter ref(policy);
  EXPECT_TRUE(ref.guarded("/dev/vehicle/door0"));
  core::AccessQuery q;
  q.subject_exe = "/usr/bin/rescue_daemon";
  q.object_path = "/dev/vehicle/door0";
  q.op = MacOp::write;
  // DOOR_OVERRIDE is inactive outside emergency: POLP denies.
  EXPECT_EQ(ref.decide("parked", q), Errno::eacces);
  EXPECT_EQ(ref.decide("driving", q), Errno::eacces);
  EXPECT_EQ(ref.decide("emergency", q), Errno::ok);
}

TEST(ReferenceInterpreter, DenyWinsOverAllow) {
  auto policy = PolicyBuilder()
                    .state("s", 0)
                    .initial("s")
                    .permission("P")
                    .grant("s", "P")
                    .allow("P", "*", "/data/**", MacOp::read)
                    .deny("P", "*", "/data/secret", MacOp::read)
                    .build();
  ReferenceInterpreter ref(policy);
  core::AccessQuery q;
  q.subject_exe = "/usr/bin/app";
  q.object_path = "/data/secret";
  q.op = MacOp::read;
  EXPECT_EQ(ref.decide("s", q), Errno::eacces);
  q.object_path = "/data/public";
  EXPECT_EQ(ref.decide("s", q), Errno::ok);
}

// -------------------------------------------------------------- universe --

TEST(Universe, GlobWitnessesMatchTheirGlob) {
  for (const char* pattern :
       {"/dev/vehicle/door*", "/var/diag/**", "/a/*/b", "/data/**/log",
        "/opt/app/{bin,lib}/*", "/tmp/file?.txt"}) {
    auto glob = Glob::compile(pattern);
    ASSERT_TRUE(glob.ok()) << pattern;
    auto witnesses = glob_witnesses(*glob, 3);
    EXPECT_FALSE(witnesses.empty()) << pattern;
    for (const auto& w : witnesses) {
      EXPECT_TRUE(glob->matches(w)) << pattern << " should match " << w;
    }
  }
}

TEST(Universe, ContainsLiteralsProbesAndBystander) {
  auto policy = escalation_policy();
  auto universe = build_universe(policy);
  auto has_object = [&](std::string_view path) {
    return std::find(universe.objects.begin(), universe.objects.end(), path) !=
           universe.objects.end();
  };
  EXPECT_TRUE(has_object("/unguarded/probe"));
  // At least one witness under each object pattern.
  EXPECT_TRUE(std::any_of(universe.objects.begin(), universe.objects.end(),
                          [](const std::string& o) {
                            return o.rfind("/dev/vehicle/door", 0) == 0;
                          }));
  bool has_bystander =
      std::any_of(universe.subjects.begin(), universe.subjects.end(),
                  [](const SubjectSample& s) {
                    return s.exe == "/usr/bin/uninvolved_app";
                  });
  EXPECT_TRUE(has_bystander);
  bool has_rescue =
      std::any_of(universe.subjects.begin(), universe.subjects.end(),
                  [](const SubjectSample& s) {
                    return s.exe == "/usr/bin/rescue_daemon";
                  });
  EXPECT_TRUE(has_rescue);
  // Mentioned ops plus one unmentioned op for the miss path.
  EXPECT_NE(std::find(universe.ops.begin(), universe.ops.end(), MacOp::write),
            universe.ops.end());
  EXPECT_GT(universe.ops.size(), 3u);  // read, write, ioctl + extra
  EXPECT_GT(universe.tuple_count(3), 0u);
}

// ---------------------------------------------------------------- oracle --

TEST(Oracle, PassesOnBuilderPolicyAndActuallyChecks) {
  auto policy = escalation_policy();
  auto report = run_differential_oracle(policy);
  EXPECT_TRUE(report.ok()) << (report.mismatches.empty()
                                   ? "?"
                                   : report.mismatches[0].to_string());
  EXPECT_EQ(report.states_checked, 3u);
  EXPECT_GT(report.tuples_checked, 0u);
  // A vacuous AVC leg would pass trivially; require real hit round-trips.
  EXPECT_GT(report.avc_hits_verified, 0u);
}

TEST(Oracle, PassesOnAllShippedPolicies) {
  for (const char* name :
       {"cav_default.sack", "speed_gate.sack", "emergency_failsafe.sack",
        "watchdog_failsafe.sack"}) {
    auto parsed = core::parse_policy(read_policy_file(name));
    ASSERT_TRUE(parsed.ok()) << name;
    auto report = run_differential_oracle(parsed.policy);
    EXPECT_TRUE(report.ok())
        << name << ": "
        << (report.mismatches.empty() ? "?" : report.mismatches[0].to_string());
    EXPECT_GT(report.tuples_checked, 0u) << name;
  }
}

TEST(Oracle, MismatchRendersAllCoordinates) {
  OracleMismatch m;
  m.engine = "dfa-labeled";
  m.state = "emergency";
  m.subject = {"/usr/bin/app", ""};
  m.object = "/dev/vehicle/door0";
  m.op = MacOp::write;
  m.reference = Errno::eacces;
  m.observed = Errno::ok;
  auto text = m.to_string();
  EXPECT_NE(text.find("dfa-labeled"), std::string::npos);
  EXPECT_NE(text.find("emergency"), std::string::npos);
  EXPECT_NE(text.find("/dev/vehicle/door0"), std::string::npos);
  EXPECT_NE(text.find("write"), std::string::npos);
}

// ----------------------------------------------------------- subsumption --

TEST(RuleSubsume, OpsSubjectAndObjectAllRequired) {
  auto general = core::make_rule(core::RuleEffect::deny, "*", "/data/**",
                                 MacOp::read | MacOp::write);
  auto specific = core::make_rule(core::RuleEffect::allow, "/usr/bin/app",
                                  "/data/logs/app.log", MacOp::read);
  ASSERT_TRUE(general.ok());
  ASSERT_TRUE(specific.ok());
  EXPECT_TRUE(rule_subsumes(general.value(), specific.value()));
  // Narrower op mask on the general rule breaks the implication.
  auto read_only =
      core::make_rule(core::RuleEffect::deny, "*", "/data/**", MacOp::read);
  auto writes = core::make_rule(core::RuleEffect::allow, "/usr/bin/app",
                                "/data/logs/app.log", MacOp::write);
  ASSERT_TRUE(read_only.ok());
  ASSERT_TRUE(writes.ok());
  EXPECT_FALSE(rule_subsumes(read_only.value(), writes.value()));
  // Disjoint object patterns too.
  auto elsewhere =
      core::make_rule(core::RuleEffect::deny, "*", "/etc/**", MacOp::read);
  ASSERT_TRUE(elsewhere.ok());
  EXPECT_FALSE(rule_subsumes(elsewhere.value(), specific.value()));
}

// -------------------------------------------------------------- verifier --

TEST(Verifier, NeverAllowViolationIsErrorWithTrace) {
  auto policy = escalation_policy();
  VerifyOptions options;
  auto parsed = parse_queries(
      "never allow /usr/bin/rescue_daemon /dev/vehicle/door0 write;\n");
  ASSERT_TRUE(parsed.ok());
  options.queries = parsed.queries;
  auto report = verify_policy(policy, options, "escalation");
  EXPECT_TRUE(report.has_errors());
  const Finding* violation = nullptr;
  for (const auto& f : report.findings) {
    if (f.code.rfind("invariant.", 0) == 0) violation = &f;
  }
  ASSERT_NE(violation, nullptr);
  EXPECT_EQ(violation->severity, FindingSeverity::error);
  ASSERT_EQ(violation->trace.size(), 2u);
  EXPECT_EQ(violation->trace[0], "parked -[start_driving]-> driving");
  EXPECT_EQ(violation->trace[1], "driving -[crash_detected]-> emergency");
}

TEST(Verifier, HoldingInvariantAndReachQueriesPass) {
  auto policy = escalation_policy();
  VerifyOptions options;
  auto parsed = parse_queries(
      "never allow * /var/diag/boot.log write;\n"
      "reach emergency;\n"
      "can /usr/bin/rescue_daemon /dev/vehicle/door0 write;\n");
  ASSERT_TRUE(parsed.ok());
  options.queries = parsed.queries;
  auto report = verify_policy(policy, options, "escalation");
  EXPECT_FALSE(report.has_errors()) << report.to_text();
  EXPECT_EQ(report.stats.queries_checked, 3u);
}

TEST(Verifier, UnreachableReachQueryIsError) {
  auto policy = PolicyBuilder()
                    .state("a", 0)
                    .state("island", 1)
                    .initial("a")
                    .permission("P")
                    .grant("a", "P")
                    .grant("island", "P")
                    .allow("P", "*", "/d/f", MacOp::read)
                    .build();
  VerifyOptions options;
  auto parsed = parse_queries("reach island;\n");
  ASSERT_TRUE(parsed.ok());
  options.queries = parsed.queries;
  options.run_oracle = false;
  auto report = verify_policy(policy, options);
  EXPECT_TRUE(report.has_errors());
}

TEST(Verifier, StateLevelCrossPermissionShadowWarns) {
  // The allow lives in DIAG, the subsuming deny in LOCKDOWN; both are active
  // in state s, so the allow is dead there — invisible to the per-permission
  // checker, caught by the state-level pass.
  auto policy = PolicyBuilder()
                    .state("s", 0)
                    .initial("s")
                    .permission("DIAG")
                    .permission("LOCKDOWN")
                    .grant("s", "DIAG")
                    .grant("s", "LOCKDOWN")
                    .allow("DIAG", "*", "/var/diag/app.log", MacOp::read)
                    .deny("LOCKDOWN", "*", "/var/diag/**", MacOp::read)
                    .build();
  VerifyOptions options;
  options.run_oracle = false;
  auto report = verify_policy(policy, options);
  bool shadow_warned = false;
  for (const auto& f : report.findings) {
    if (f.code.rfind("shadow.", 0) == 0) {
      EXPECT_EQ(f.severity, FindingSeverity::warning);
      shadow_warned = true;
    }
  }
  EXPECT_TRUE(shadow_warned) << report.to_text();
}

TEST(Verifier, ParseErrorBecomesErrorFinding) {
  auto report = verify_policy_text("states { broken", {}, "broken");
  EXPECT_TRUE(report.has_errors());
  bool parse_finding = false;
  for (const auto& f : report.findings) {
    if (f.code.rfind("parse.", 0) == 0) parse_finding = true;
  }
  EXPECT_TRUE(parse_finding);
}

TEST(Verifier, ShippedPoliciesVerifyWithZeroErrors) {
  for (const char* name :
       {"cav_default.sack", "speed_gate.sack", "emergency_failsafe.sack",
        "watchdog_failsafe.sack"}) {
    auto report = verify_policy_text(read_policy_file(name), {}, name);
    EXPECT_FALSE(report.has_errors()) << report.to_text();
  }
}

TEST(Verifier, TextReportEndsWithResultLine) {
  auto policy = escalation_policy();
  VerifyOptions options;
  options.run_oracle = false;
  auto report = verify_policy(policy, options, "escalation");
  auto text = report.to_text();
  EXPECT_NE(text.find("result: 0 error"), std::string::npos) << text;
}

TEST(Verifier, JsonReportIsWellFormedEnough) {
  auto policy = escalation_policy();
  VerifyOptions options;
  auto parsed = parse_queries(
      "never allow /usr/bin/rescue_daemon /dev/vehicle/door0 write;\n");
  ASSERT_TRUE(parsed.ok());
  options.queries = parsed.queries;
  auto report = verify_policy(policy, options, "escalation");
  auto json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"findings\""), std::string::npos);
  // Balanced braces is a cheap sanity proxy for emission bugs.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Report, JsonEscapeHandlesControlAndQuote) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

}  // namespace
}  // namespace sack::verify
