// Parser conformance tables: many small accept/reject cases for all three
// policy languages, pinned as TEST_P tables so grammar regressions surface
// with the exact offending snippet.
#include <gtest/gtest.h>

#include "apparmor/parser.h"
#include "core/policy_parser.h"
#include "te/te_policy.h"

namespace sack {
namespace {

struct Snippet {
  const char* name;
  const char* text;
  bool accept;
};

// Names each case after its snippet, so test names stay the same from one
// build to the next (the default printer would show the raw pointer bytes).
void PrintTo(const Snippet& s, std::ostream* os) { *os << s.name; }

// --- SACK policy language ---

class SackGrammar : public ::testing::TestWithParam<Snippet> {};

TEST_P(SackGrammar, AcceptsOrRejects) {
  const Snippet& s = GetParam();
  auto result = core::parse_policy(s.text);
  EXPECT_EQ(result.ok(), s.accept)
      << s.text
      << (result.ok() ? "" : ("\nfirst error: " +
                              result.errors[0].to_string()));
}

INSTANTIATE_TEST_SUITE_P(
    Table, SackGrammar,
    ::testing::Values(
        Snippet{"empty_document", "", true},
        Snippet{"comment_only", "# nothing here\n", true},
        Snippet{"minimal_states", "states { a = 0; } initial a;", true},
        Snippet{"state_needs_encoding", "states { a; }", false},
        Snippet{"state_needs_semicolon", "states { a = 0 }", false},
        Snippet{"negative_encoding_rejected", "states { a = -1; }", false},
        Snippet{"transition_on", "states { a=0; b=1; } initial a;"
                                 "transitions { a -> b on go; }",
                true},
        Snippet{"transition_after", "states { a=0; b=1; } initial a;"
                                    "transitions { a -> b after 100; }",
                true},
        Snippet{"transition_needs_arrow",
                "transitions { a to b on go; }", false},
        Snippet{"transition_after_needs_number",
                "transitions { a -> b after soon; }", false},
        Snippet{"permissions_list", "permissions { A; B_2; C-3; }", true},
        Snippet{"state_per_multi", "state_per { s: A, B, C; }", true},
        Snippet{"state_per_trailing_comma", "state_per { s: A, ; }", false},
        Snippet{"rule_any_subject",
                "per_rules { P { allow * /x read; } }", true},
        Snippet{"rule_profile_subject",
                "per_rules { P { allow @prof /x read; } }", true},
        Snippet{"rule_path_subject",
                "per_rules { P { allow /bin/* /x read; } }", true},
        Snippet{"rule_deny",
                "per_rules { P { deny * /x write; } }", true},
        Snippet{"rule_needs_effect",
                "per_rules { P { * /x read; } }", false},
        Snippet{"rule_needs_object",
                "per_rules { P { allow * read; } }", false},
        Snippet{"rule_unknown_op",
                "per_rules { P { allow * /x teleport; } }", false},
        Snippet{"rule_glob_object",
                "per_rules { P { allow * /a/{b,c}/** read; } }", true},
        Snippet{"rule_bad_glob",
                "per_rules { P { allow * /a/{b read; } }", false},
        Snippet{"multiple_sections",
                "states { a = 0; } initial a; permissions { P; } "
                "state_per { a: P; } per_rules { P { allow * /x read; } }",
                true},
        Snippet{"unknown_top_level", "chapters { }", false},
        Snippet{"events_block", "events { e1; e2; }", true}));

// --- AppArmor-like profile language ---

class AaGrammar : public ::testing::TestWithParam<Snippet> {};

TEST_P(AaGrammar, AcceptsOrRejects) {
  const Snippet& s = GetParam();
  auto result = apparmor::parse_profiles(s.text);
  EXPECT_EQ(result.ok(), s.accept)
      << s.text
      << (result.ok() ? "" : ("\nfirst error: " +
                              result.errors[0].to_string()));
}

INSTANTIATE_TEST_SUITE_P(
    Table, AaGrammar,
    ::testing::Values(
        Snippet{"named_with_attachment",
                "profile app /usr/bin/app { /x r, }", true},
        Snippet{"path_named", "/usr/bin/app { /x r, }", true},
        Snippet{"bare_name_no_attachment", "profile app { /x r, }", true},
        Snippet{"empty_body", "profile app /bin/a { }", true},
        Snippet{"all_perm_letters", "profile a /b { /x rxmkli, }", true},
        Snippet{"write_append_conflict", "profile a /b { /x wa, }", false},
        Snippet{"unknown_perm_letter", "profile a /b { /x q, }", false},
        Snippet{"deny_rule", "profile a /b { deny /x rw, }", true},
        Snippet{"allow_keyword_optional",
                "profile a /b { allow /x r, }", true},
        Snippet{"missing_comma", "profile a /b { /x r }", false},
        Snippet{"capability_rule",
                "profile a /b { capability mac_admin, }", true},
        Snippet{"capability_cap_prefix",
                "profile a /b { capability CAP_SYS_ADMIN, }", true},
        Snippet{"unknown_capability",
                "profile a /b { capability time_travel, }", false},
        Snippet{"network_bare", "profile a /b { network, }", true},
        Snippet{"network_family", "profile a /b { network unix, }", true},
        Snippet{"network_family_type",
                "profile a /b { network inet stream, }", true},
        Snippet{"unknown_network_family",
                "profile a /b { network xns, }", false},
        Snippet{"complain_flag",
                "profile a /b flags=(complain) { /x r, }", true},
        Snippet{"enforce_flag",
                "profile a /b flags=(enforce) { /x r, }", true},
        Snippet{"exec_transition", "profile a /b { /c rx -> target, }", true},
        Snippet{"exec_transition_needs_x",
                "profile a /b { /c r -> target, }", false},
        Snippet{"two_profiles",
                "profile a /bin/a { /x r, } profile b /bin/b { /y w, }",
                true},
        Snippet{"unclosed_brace", "profile a /b { /x r,", false}));

// --- TE policy language ---

class TeGrammar : public ::testing::TestWithParam<Snippet> {};

TEST_P(TeGrammar, AcceptsOrRejects) {
  const Snippet& s = GetParam();
  auto result = te::parse_te_policy(s.text);
  EXPECT_EQ(result.ok(), s.accept)
      << s.text
      << (result.ok() ? "" : ("\nfirst error: " +
                              result.errors[0].to_string()));
}

INSTANTIATE_TEST_SUITE_P(
    Table, TeGrammar,
    ::testing::Values(
        Snippet{"type_decl", "type media_t;", true},
        Snippet{"attribute_decl", "attribute domain;", true},
        Snippet{"allow_single_perm",
                "allow a_t b_t : file { read };", true},
        Snippet{"allow_multi_perm",
                "allow a_t b_t : chardev { write ioctl };", true},
        Snippet{"allow_all_classes",
                "allow a b : dir { read }; allow a b : symlink { getattr };"
                "allow a b : socket { write }; allow a b : process "
                "{ transition };",
                true},
        Snippet{"allow_needs_colon", "allow a b file { read };", false},
        Snippet{"allow_unknown_class", "allow a b : pixie { read };", false},
        Snippet{"allow_unknown_perm", "allow a b : file { fly };", false},
        Snippet{"allow_empty_perms", "allow a b : file { };", false},
        Snippet{"domain_transition_stmt",
                "domain_transition a_t b_exec_t c_t;", true},
        Snippet{"filecon_stmt", "filecon /usr/bin/* app_exec_t;", true},
        Snippet{"filecon_needs_path", "filecon app app_exec_t;", false},
        Snippet{"default_domain_stmt", "default_domain base_t;", true},
        Snippet{"bool_decl", "bool night_mode true;", true},
        Snippet{"bool_needs_bool_value", "bool night_mode maybe;", false},
        Snippet{"if_block", "bool b false; type a;"
                            "if b { allow a a : file { read }; }",
                true},
        Snippet{"if_block_only_allows",
                "bool b false; if b { type x; }", false},
        Snippet{"unknown_statement", "permit a b : file { read };", false}));

}  // namespace
}  // namespace sack
