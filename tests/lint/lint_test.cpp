// Self-tests for hmn-lint: lexer behavior, every rule against its fixture
// (positive, suppressed, and clean variants), suppression hygiene, golden
// output format, baseline round-trips — and the capstone: the repository's
// own src/ tree must scan with zero unsuppressed findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.h"
#include "report.h"
#include "rules.h"

namespace fs = std::filesystem;
using hmn::lint::Finding;

namespace {

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<Finding> analyze_fixture(const std::string& rel) {
  const fs::path path = fs::path(HMN_LINT_FIXTURES) / rel;
  return hmn::lint::analyze_source(rel, read_file(path),
                                   hmn::lint::classify_path(rel));
}

std::vector<Finding> unsuppressed(const std::vector<Finding>& all) {
  std::vector<Finding> out;
  for (const Finding& f : all) {
    if (!f.suppressed) out.push_back(f);
  }
  return out;
}

std::size_t count_rule(const std::vector<Finding>& all, const std::string& rule,
                       bool want_suppressed = false) {
  std::size_t n = 0;
  for (const Finding& f : all) {
    if (f.rule == rule && f.suppressed == want_suppressed) ++n;
  }
  return n;
}

bool has_finding(const std::vector<Finding>& all, const std::string& rule,
                 std::size_t line) {
  return std::any_of(all.begin(), all.end(), [&](const Finding& f) {
    return f.rule == rule && f.line == line;
  });
}

// ---- lexer ---------------------------------------------------------------

TEST(Lexer, TokenizesIdentifiersNumbersAndPunct) {
  const auto r = hmn::lint::lex("int x = 42 + 0x1f; double y = 1.5e3;");
  ASSERT_GE(r.tokens.size(), 12u);
  EXPECT_EQ(r.tokens[0].text, "int");
  EXPECT_EQ(r.tokens[3].text, "42");
  EXPECT_FALSE(r.tokens[3].is_float);
  const auto& hex = r.tokens[5];
  EXPECT_EQ(hex.text, "0x1f");
  EXPECT_FALSE(hex.is_float) << "hex f-digit must not read as float suffix";
  bool saw_float = false;
  for (const auto& t : r.tokens) {
    if (t.text == "1.5e3") {
      saw_float = true;
      EXPECT_TRUE(t.is_float);
    }
  }
  EXPECT_TRUE(saw_float);
}

TEST(Lexer, FloatSuffixAndDotForms) {
  const auto r = hmn::lint::lex("a = 1f; b = 2.; c = 3'000; d = .5;");
  std::vector<std::pair<std::string, bool>> expect = {
      {"1f", true}, {"2.", true}, {"3'000", false}, {".5", true}};
  for (const auto& [text, is_float] : expect) {
    bool found = false;
    for (const auto& t : r.tokens) {
      if (t.text == text) {
        found = true;
        EXPECT_EQ(t.is_float, is_float) << text;
      }
    }
    EXPECT_TRUE(found) << text;
  }
}

TEST(Lexer, CommentsAreOutOfBand) {
  const auto r = hmn::lint::lex(
      "int a; // trailing == rand()\n"
      "/* block\n   spanning == */\n"
      "int b;\n");
  ASSERT_EQ(r.comments.size(), 2u);
  EXPECT_FALSE(r.comments[0].own_line);
  EXPECT_TRUE(r.comments[1].own_line);
  for (const auto& t : r.tokens) {
    EXPECT_NE(t.text, "==") << "operators inside comments must not tokenize";
    EXPECT_NE(t.text, "rand");
  }
}

TEST(Lexer, StringsAndRawStringsSwallowOperators) {
  const auto r = hmn::lint::lex(
      "auto s = \"a == b\"; auto t = R\"(x != y)\"; char c = '=';");
  for (const auto& t : r.tokens) {
    if (t.kind == hmn::lint::TokenKind::kPunct) {
      EXPECT_NE(t.text, "==");
      EXPECT_NE(t.text, "!=");
    }
  }
}

TEST(Lexer, PreprocessorDirectivesFoldContinuations) {
  const auto r = hmn::lint::lex("#define MAX(a, b) \\\n  ((a) > (b))\nint x;");
  ASSERT_FALSE(r.tokens.empty());
  EXPECT_EQ(r.tokens[0].kind, hmn::lint::TokenKind::kPreprocessor);
  EXPECT_NE(r.tokens[0].text.find("MAX"), std::string_view::npos);
  // The folded body must not leak > as a code token.
  EXPECT_EQ(r.tokens[1].text, "int");
}

TEST(Lexer, TracksLineNumbers) {
  const auto r = hmn::lint::lex("int a;\nint b;\n  int c;\n");
  ASSERT_GE(r.tokens.size(), 9u);
  EXPECT_EQ(r.tokens[0].line, 1u);
  EXPECT_EQ(r.tokens[3].line, 2u);
  EXPECT_EQ(r.tokens[6].line, 3u);
  EXPECT_EQ(r.tokens[6].col, 3u);
}

// ---- path classification -------------------------------------------------

TEST(Classify, ModulesAndHeaders) {
  auto core = hmn::lint::classify_path("src/core/hosting.cpp");
  EXPECT_TRUE(core.is_decision_module);
  EXPECT_FALSE(core.is_util_module);
  EXPECT_FALSE(core.is_header);

  auto util = hmn::lint::classify_path("src/util/rng.h");
  EXPECT_TRUE(util.is_util_module);
  EXPECT_FALSE(util.is_decision_module);
  EXPECT_TRUE(util.is_header);

  auto io = hmn::lint::classify_path("src/io/trace.cpp");
  EXPECT_FALSE(io.is_decision_module);

  for (const char* m : {"orchestrator", "workload", "topology", "multilevel"}) {
    EXPECT_TRUE(hmn::lint::classify_path(std::string("src/") + m + "/x.cpp")
                    .is_decision_module)
        << m;
  }
}

// ---- R1: unordered-iter --------------------------------------------------

TEST(UnorderedIter, CatchesEveryShapeInDecisionModule) {
  const auto all = analyze_fixture("core/bad_unordered.cpp");
  EXPECT_TRUE(has_finding(all, "unordered-iter", 8)) << "using-alias decl";
  EXPECT_TRUE(has_finding(all, "unordered-iter", 11)) << "member decl";
  EXPECT_TRUE(has_finding(all, "unordered-iter", 16)) << "range-for";
  EXPECT_TRUE(has_finding(all, "unordered-iter", 19)) << "local decl";
  EXPECT_TRUE(has_finding(all, "unordered-iter", 20)) << "member begin()";
  EXPECT_TRUE(has_finding(all, "unordered-iter", 22)) << "alias-typed decl";
  EXPECT_TRUE(has_finding(all, "unordered-iter", 23)) << "std::begin(var)";
  EXPECT_EQ(count_rule(all, "unordered-iter"), 7u);
  EXPECT_TRUE(unsuppressed(all).size() == all.size()) << "nothing suppressed";
}

TEST(UnorderedIter, SuppressionWithReasonIsHonored) {
  const auto all = analyze_fixture("core/suppressed_unordered.cpp");
  EXPECT_EQ(count_rule(all, "unordered-iter", /*want_suppressed=*/true), 1u);
  EXPECT_TRUE(unsuppressed(all).empty());
  for (const Finding& f : all) {
    if (f.suppressed) {
      EXPECT_EQ(f.suppression_reason, "lookup-only cache; never iterated");
    }
  }
}

TEST(UnorderedIter, LookupOnlyOutsideDecisionModulesIsClean) {
  const auto all = analyze_fixture("io/clean_lookup.cpp");
  EXPECT_TRUE(all.empty()) << (all.empty() ? "" : all.front().message);
}

// ---- R2: raw-random ------------------------------------------------------

TEST(RawRandom, CatchesGeneratorsClocksAndSeeds) {
  const auto all = analyze_fixture("sim/bad_random.cpp");
  EXPECT_TRUE(has_finding(all, "raw-random", 8)) << "random_device";
  EXPECT_TRUE(has_finding(all, "raw-random", 9)) << "mt19937";
  EXPECT_TRUE(has_finding(all, "raw-random", 10)) << "srand + time()";
  EXPECT_TRUE(has_finding(all, "raw-random", 11)) << "rand()";
  EXPECT_TRUE(has_finding(all, "raw-random", 12)) << "system_clock";
  EXPECT_TRUE(has_finding(all, "raw-random", 19)) << "declaring rand()";
  // The member *call* s.rand() must not fire.
  EXPECT_FALSE(has_finding(all, "raw-random", 22));
  EXPECT_EQ(count_rule(all, "raw-random"), 7u) << "srand line carries two";
}

TEST(RawRandom, UtilModuleIsExempt) {
  const std::string source = "#include <random>\nstd::mt19937 gen;\n";
  const auto all = hmn::lint::analyze_source("src/util/rng.cpp", source);
  EXPECT_TRUE(all.empty());
  const auto elsewhere = hmn::lint::analyze_source("src/sim/x.cpp", source);
  EXPECT_EQ(count_rule(elsewhere, "raw-random"), 1u);
}

// ---- R3: float-eq --------------------------------------------------------

TEST(FloatEq, LiteralsTrackedVarsAndNullptrEscape) {
  const auto all = analyze_fixture("sim/bad_float.cpp");
  EXPECT_TRUE(has_finding(all, "float-eq", 2)) << "x == 0.5";
  EXPECT_TRUE(has_finding(all, "float-eq", 3)) << "1.0 != x";
  EXPECT_TRUE(has_finding(all, "float-eq", 7)) << "tracked double vars";
  EXPECT_FALSE(has_finding(all, "float-eq", 11)) << "p == nullptr exempt";
  EXPECT_FALSE(has_finding(all, "float-eq", 14)) << "int compare exempt";
  EXPECT_EQ(count_rule(all, "float-eq", /*want_suppressed=*/true), 1u)
      << "sentinel suppression on line 18";
  EXPECT_EQ(count_rule(all, "float-eq"), 3u);
}

TEST(FloatEq, QualifiedDeclaratorDoesNotHideLaterDoubles) {
  // `double Foo::bar(...)` is a function, not a variable `Foo` whose
  // initializer runs to the comma inside `std::variant<int, long>`.
  const auto all = analyze_fixture("io/qualified_double.cpp");
  EXPECT_TRUE(has_finding(all, "float-eq", 16)) << "d != std::floor(d)";
  EXPECT_EQ(count_rule(all, "float-eq"), 1u);
}

// ---- R4: raw-output ------------------------------------------------------

TEST(RawOutput, CatchesStdioButNotBufferFormatting) {
  const auto all = analyze_fixture("sim/bad_output.cpp");
  EXPECT_TRUE(has_finding(all, "raw-output", 6)) << "std::cout";
  EXPECT_TRUE(has_finding(all, "raw-output", 7)) << "printf";
  EXPECT_TRUE(has_finding(all, "raw-output", 8)) << "puts";
  EXPECT_EQ(count_rule(all, "raw-output"), 3u) << "snprintf must not fire";
}

// ---- R5: header-hygiene --------------------------------------------------

TEST(HeaderHygiene, MissingPragmaAndNamespaceScopeUsing) {
  const auto all = analyze_fixture("io/bad_header.h");
  EXPECT_TRUE(has_finding(all, "header-hygiene", 1)) << "missing pragma once";
  EXPECT_TRUE(has_finding(all, "header-hygiene", 5)) << "file-scope using";
  EXPECT_TRUE(has_finding(all, "header-hygiene", 8)) << "namespace-scope using";
  EXPECT_EQ(count_rule(all, "header-hygiene"), 3u);
}

TEST(HeaderHygiene, CleanHeaderPasses) {
  const auto all = analyze_fixture("io/clean_header.h");
  EXPECT_TRUE(all.empty()) << (all.empty() ? "" : all.front().message);
}

TEST(HeaderHygiene, SourceFilesAreExempt) {
  const auto all =
      hmn::lint::analyze_source("src/sim/x.cpp", "using namespace std;\n");
  EXPECT_TRUE(all.empty());
}

// ---- suppression hygiene -------------------------------------------------

TEST(Suppressions, BadAndUnusedAnnotationsAreFindings) {
  const auto all = analyze_fixture("sim/bad_suppressions.cpp");
  EXPECT_TRUE(has_finding(all, "bad-suppression", 2)) << "unknown rule";
  EXPECT_TRUE(has_finding(all, "bad-suppression", 5)) << "missing reason";
  EXPECT_TRUE(has_finding(all, "float-eq", 6))
      << "reason-less suppression must not actually suppress";
  EXPECT_TRUE(has_finding(all, "unused-suppression", 8)) << "stale allow";
  EXPECT_TRUE(has_finding(all, "bad-suppression", 11)) << "marker, no allow";
}

TEST(Suppressions, TrailingCommentCoversItsOwnLine) {
  const auto all = hmn::lint::analyze_source(
      "src/sim/x.cpp",
      "bool f(double x) { return x == 0.0; }  "
      "// hmn-lint: allow(float-eq, exact sentinel)\n");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].suppressed);
}

TEST(Suppressions, OwnLineCommentCoversNextCodeLine) {
  const auto all = hmn::lint::analyze_source(
      "src/sim/x.cpp",
      "// hmn-lint: allow(float-eq, exact sentinel)\n"
      "bool f(double x) { return x == 0.0; }\n");
  ASSERT_EQ(all.size(), 1u);
  EXPECT_TRUE(all[0].suppressed);
}

TEST(Suppressions, DoesNotLeakPastItsLine) {
  const auto all = hmn::lint::analyze_source(
      "src/sim/x.cpp",
      "// hmn-lint: allow(float-eq, exact sentinel)\n"
      "bool f(double x) { return x == 0.0; }\n"
      "bool g(double x) { return x == 1.0; }\n");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_TRUE(all[0].suppressed);
  EXPECT_FALSE(all[1].suppressed);
}

// ---- output formats ------------------------------------------------------

TEST(Output, GoldenTextFormat) {
  const auto all = hmn::lint::analyze_source(
      "src/sim/x.cpp", "bool f(double x) { return x == 0.5; }\n");
  ASSERT_EQ(all.size(), 1u);
  std::ostringstream out;
  hmn::lint::print_text(out, all, /*show_suppressed=*/false);
  EXPECT_EQ(out.str(),
            "src/sim/x.cpp:1:29: float-eq: raw floating-point '==' — "
            "compare against a tolerance, or suppress with why exact "
            "equality is sound here\n");
}

TEST(Output, JsonReportShapeAndEscaping) {
  Finding f;
  f.file = "a\"b.cpp";
  f.line = 3;
  f.col = 7;
  f.rule = "float-eq";
  f.message = "line1\nline2";
  const std::string json = hmn::lint::to_json({f});
  EXPECT_NE(json.find("\"file\": \"a\\\"b.cpp\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\"unsuppressed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total\": 1"), std::string::npos);
}

TEST(Output, BaselineRoundTripAbsorbsExactlyOnce) {
  const auto all = analyze_fixture("sim/bad_float.cpp");
  const auto live = unsuppressed(all);
  ASSERT_FALSE(live.empty());
  const std::string doc = hmn::lint::write_baseline(all);
  hmn::lint::Baseline baseline;
  ASSERT_TRUE(hmn::lint::load_baseline(doc, baseline));
  EXPECT_EQ(baseline.keys.size(), live.size());
  for (const Finding& f : live) {
    EXPECT_TRUE(baseline.absorb(f)) << f.message;
  }
  // Fully consumed: a second identical finding is NOT grandfathered.
  EXPECT_FALSE(baseline.absorb(live.front()));
}

TEST(Output, MalformedBaselineIsRejected) {
  hmn::lint::Baseline baseline;
  EXPECT_FALSE(hmn::lint::load_baseline("{\"entries\": [", baseline));
  EXPECT_FALSE(hmn::lint::load_baseline("not json", baseline));
  EXPECT_TRUE(hmn::lint::load_baseline("{\"entries\": []}\n", baseline));
  EXPECT_TRUE(baseline.keys.empty());
}

// ---- the capstone: the repo itself ---------------------------------------

TEST(RepoScan, SrcTreeHasZeroUnsuppressedFindings) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(HMN_LINT_SRC)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".cpp" || ext == ".h") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 100u) << "src/ walk looks wrong";
  std::size_t suppressed = 0;
  for (const fs::path& p : files) {
    const auto all = hmn::lint::analyze_source(p.generic_string(),
                                               read_file(p));
    for (const Finding& f : all) {
      EXPECT_TRUE(f.suppressed)
          << p.generic_string() << ":" << f.line << ": " << f.rule << ": "
          << f.message;
      if (f.suppressed) ++suppressed;
    }
  }
  // The sweep documented every intentional exception; losing them all in
  // one edit would mean the scanner broke, not that the tree got cleaner.
  EXPECT_GE(suppressed, 10u);
}

}  // namespace
