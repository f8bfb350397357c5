#include "util/glob.h"

#include <gtest/gtest.h>

namespace sack {
namespace {

Glob compile(std::string_view pattern) {
  auto g = Glob::compile(pattern);
  EXPECT_TRUE(g.ok()) << "pattern failed to compile: " << pattern;
  return std::move(g).value();
}

TEST(Glob, LiteralMatchesItselfOnly) {
  Glob g = compile("/dev/vehicle/audio");
  EXPECT_TRUE(g.matches("/dev/vehicle/audio"));
  EXPECT_FALSE(g.matches("/dev/vehicle/audio2"));
  EXPECT_FALSE(g.matches("/dev/vehicle/audi"));
  EXPECT_FALSE(g.matches("/dev/vehicle"));
  EXPECT_TRUE(g.is_literal());
  EXPECT_EQ(g.literal(), "/dev/vehicle/audio");
}

TEST(Glob, StarDoesNotCrossSlash) {
  Glob g = compile("/dev/vehicle/door*");
  EXPECT_TRUE(g.matches("/dev/vehicle/door"));
  EXPECT_TRUE(g.matches("/dev/vehicle/door0"));
  EXPECT_TRUE(g.matches("/dev/vehicle/door-rear-left"));
  EXPECT_FALSE(g.matches("/dev/vehicle/door0/lock"));
  EXPECT_FALSE(g.matches("/dev/vehicle/window0"));
  EXPECT_FALSE(g.is_literal());
}

TEST(Glob, DoubleStarCrossesSlash) {
  Glob g = compile("/var/media/**");
  EXPECT_TRUE(g.matches("/var/media/a"));
  EXPECT_TRUE(g.matches("/var/media/albums/track01.pcm"));
  EXPECT_TRUE(g.matches("/var/media/"));
  EXPECT_FALSE(g.matches("/var/medias/x"));
  EXPECT_FALSE(g.matches("/var/other"));
}

TEST(Glob, DoubleStarMatchesEmpty) {
  Glob g = compile("/a/**");
  EXPECT_TRUE(g.matches("/a/"));
  EXPECT_FALSE(g.matches("/a"));  // the '/' before ** is literal
}

TEST(Glob, QuestionMarkSingleNonSlash) {
  Glob g = compile("/tmp/file?");
  EXPECT_TRUE(g.matches("/tmp/file1"));
  EXPECT_TRUE(g.matches("/tmp/fileX"));
  EXPECT_FALSE(g.matches("/tmp/file"));
  EXPECT_FALSE(g.matches("/tmp/file12"));
  EXPECT_FALSE(g.matches("/tmp/file/"));
}

TEST(Glob, CharacterClass) {
  Glob g = compile("/dev/door[0-3]");
  EXPECT_TRUE(g.matches("/dev/door0"));
  EXPECT_TRUE(g.matches("/dev/door3"));
  EXPECT_FALSE(g.matches("/dev/door4"));
  EXPECT_FALSE(g.matches("/dev/doorx"));
}

TEST(Glob, NegatedCharacterClass) {
  Glob g = compile("/x/[^ab]");
  EXPECT_TRUE(g.matches("/x/c"));
  EXPECT_FALSE(g.matches("/x/a"));
  EXPECT_FALSE(g.matches("/x/b"));
  EXPECT_FALSE(g.matches("/x//"));  // class never matches '/'
}

TEST(Glob, BraceAlternation) {
  Glob g = compile("/dev/vehicle/{door,window}*");
  EXPECT_TRUE(g.matches("/dev/vehicle/door0"));
  EXPECT_TRUE(g.matches("/dev/vehicle/window2"));
  EXPECT_FALSE(g.matches("/dev/vehicle/audio"));
}

TEST(Glob, NestedBraces) {
  Glob g = compile("/a/{b,c{d,e}}/f");
  EXPECT_TRUE(g.matches("/a/b/f"));
  EXPECT_TRUE(g.matches("/a/cd/f"));
  EXPECT_TRUE(g.matches("/a/ce/f"));
  EXPECT_FALSE(g.matches("/a/c/f"));
}

TEST(Glob, EscapedMetacharacters) {
  Glob g = compile("/a/\\*literal");
  EXPECT_TRUE(g.matches("/a/*literal"));
  EXPECT_FALSE(g.matches("/a/xliteral"));
  EXPECT_FALSE(g.is_literal());  // contains a backslash, treated as pattern
}

TEST(Glob, MalformedPatternsRejected) {
  EXPECT_FALSE(Glob::compile("/a/{b,c").ok());
  EXPECT_FALSE(Glob::compile("/a/b}").ok());
  EXPECT_FALSE(Glob::compile("/a/[").ok());
  EXPECT_FALSE(Glob::compile("/a/[]").ok());
  EXPECT_FALSE(Glob::compile("/a/\\").ok());
  EXPECT_FALSE(Glob::compile("/a/[z-a]").ok());
}

TEST(Glob, EmptyPatternMatchesEmptyPath) {
  Glob g = compile("");
  EXPECT_TRUE(g.matches(""));
  EXPECT_FALSE(g.matches("/"));
}

TEST(Glob, StarStarAtStart) {
  Glob g = compile("**/secret");
  EXPECT_TRUE(g.matches("a/b/secret"));
  EXPECT_TRUE(g.matches("/deep/path/secret"));
  EXPECT_FALSE(g.matches("secret"));  // needs the '/'
}

TEST(Glob, MultipleWildcards) {
  Glob g = compile("/u*/b?n/**/*.conf");
  EXPECT_TRUE(g.matches("/usr/bin/app/x.conf"));
  EXPECT_TRUE(g.matches("/u/ban/a/b/c/y.conf"));
  EXPECT_FALSE(g.matches("/usr/bin/x.conf.bak"));
}

// --- property-style parameterized tests ---

struct GlobCase {
  const char* pattern;
  const char* path;
  bool expect;
};

// Names each case by its pattern and path, so test names stay the same from
// one build to the next (the default printer would show the raw pointer bytes).
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << c.pattern << (c.expect ? " matches " : " misses ") << c.path;
}

class GlobTableTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTableTest, MatchesAsExpected) {
  const GlobCase& c = GetParam();
  Glob g = compile(c.pattern);
  EXPECT_EQ(g.matches(c.path), c.expect)
      << "pattern=" << c.pattern << " path=" << c.path;
}

INSTANTIATE_TEST_SUITE_P(
    AppArmorStyle, GlobTableTest,
    ::testing::Values(
        GlobCase{"/etc/*", "/etc/passwd", true},
        GlobCase{"/etc/*", "/etc/ssl/cert", false},
        GlobCase{"/etc/**", "/etc/ssl/cert", true},
        GlobCase{"/etc/*.conf", "/etc/app.conf", true},
        GlobCase{"/etc/*.conf", "/etc/app.conf.d", false},
        GlobCase{"/home/*/.ssh/**", "/home/alice/.ssh/id_rsa", true},
        GlobCase{"/home/*/.ssh/**", "/home/alice/sub/.ssh/id", false},
        GlobCase{"/proc/[0-9]*/status", "/proc/42/status", true},
        GlobCase{"/proc/[0-9]*/status", "/proc/self/status", false},
        GlobCase{"/a/{x,y}/*", "/a/x/1", true},
        GlobCase{"/a/{x,y}/*", "/a/z/1", false},
        GlobCase{"/**", "/anything/at/all", true},
        GlobCase{"/*", "/one", true},
        GlobCase{"/*", "/one/two", false}));

// Property: a literal pattern (no metacharacters) matches exactly itself.
class GlobLiteralProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(GlobLiteralProperty, LiteralIffSelfMatch) {
  const char* path = GetParam();
  Glob g = compile(path);
  ASSERT_TRUE(g.is_literal());
  EXPECT_TRUE(g.matches(path));
  // Any single-character perturbation must not match.
  std::string p(path);
  for (std::size_t i = 0; i < p.size(); ++i) {
    std::string mutated = p;
    mutated[i] = mutated[i] == 'z' ? 'y' : 'z';
    if (mutated == p) continue;
    EXPECT_FALSE(g.matches(mutated)) << mutated;
  }
  EXPECT_FALSE(g.matches(p + "x"));
  if (!p.empty()) EXPECT_FALSE(g.matches(p.substr(0, p.size() - 1)));
}

INSTANTIATE_TEST_SUITE_P(Paths, GlobLiteralProperty,
                         ::testing::Values("/dev/vehicle/audio",
                                           "/var/log/syslog",
                                           "/etc/vehicle/vin",
                                           "/a", "/a/b/c/d/e/f/g"));

}  // namespace
}  // namespace sack
