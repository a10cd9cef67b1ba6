// Self-tests for hmn-lint v2: the whole-repo passes (include-graph
// layering, repo-wide enum registry), the function-body rules
// (txn-discipline, hot-path-alloc, exhaustive-switch), the lexer edge
// cases they depend on (raw-string prefixes, CRLF continuations), the
// relaxed tool profile, and the version-2 baseline ratchet — capped by a
// two-pass scan of the real repository that must come back clean with the
// module DAG acyclic.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "functions.h"
#include "layers.h"
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
    return f.rule == rule && f.line == line && !f.suppressed;
  });
}

std::size_t unsuppressed_count(const std::vector<Finding>& all) {
  std::size_t n = 0;
  for (const Finding& f : all) {
    if (!f.suppressed) ++n;
  }
  return n;
}

// ---- lexer edge cases ----------------------------------------------------

TEST(LexerV2, RawStringEncodingPrefixes) {
  const auto r = hmn::lint::lex(
      "auto a = u8R\"(x == y)\"; auto b = LR\"sep(p != q)sep\";\n"
      "auto c = uR\"(1 < 2)\"; auto d = UR\"(3 > 4)\"; int z = 1;\n");
  for (const auto& t : r.tokens) {
    if (t.kind == hmn::lint::TokenKind::kPunct) {
      EXPECT_NE(t.text, "==") << "prefixing must not desync the raw string";
      EXPECT_NE(t.text, "!=");
    }
    // The prefix belongs to the string token, not a preceding identifier.
    EXPECT_NE(t.text, "u8");
    EXPECT_NE(t.text, "LR");
  }
  // The trailing declaration still tokenizes: the stream recovered.
  ASSERT_GE(r.tokens.size(), 4u);
  EXPECT_EQ(r.tokens[r.tokens.size() - 4].text, "z");
}

TEST(LexerV2, CrlfLineContinuationsFold) {
  const auto r =
      hmn::lint::lex("#define PAIR(a, b) \\\r\n  ((a) == (b))\r\nint x;\n");
  ASSERT_FALSE(r.tokens.empty());
  EXPECT_EQ(r.tokens[0].kind, hmn::lint::TokenKind::kPreprocessor);
  // The folded macro body must not leak == as a code token.
  EXPECT_EQ(r.tokens[1].text, "int");
}

TEST(LexerV2, MalformedRawStringDoesNotSwallowFile) {
  // A lone R" with a newline before any '(' is malformed source; the
  // delimiter scan must stop at the line end instead of consuming the rest
  // of the file in search of the opener.
  const auto r = hmn::lint::lex("auto bad = R\"\nint marker;\n");
  bool saw_marker = false;
  for (const auto& t : r.tokens) {
    if (t.text == "marker") saw_marker = true;
  }
  EXPECT_TRUE(saw_marker);
}

// ---- function scanner & enum registry ------------------------------------

TEST(FunctionScanner, FindsBodiesAndAttachesHotAnnotations) {
  const auto lexed = hmn::lint::lex(
      "int plain(int a) { return a; }\n"
      "// hmn-lint: hot-path\n"
      "double annotated(const int* xs,\n"
      "                 int n) {\n"
      "  double s = 0;\n"
      "  for (int i = 0; i < n; ++i) s += xs[i];\n"
      "  return s;\n"
      "}\n");
  const auto fns = hmn::lint::scan_functions(lexed);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "plain");
  EXPECT_FALSE(fns[0].hot_path);
  EXPECT_EQ(fns[1].name, "annotated");
  EXPECT_TRUE(fns[1].hot_path);
}

TEST(FunctionScanner, ProseMentionOfMarkerIsNotADirective) {
  EXPECT_EQ(hmn::lint::live_marker_pos("// hmn-lint: hot-path"), 3u);
  EXPECT_EQ(hmn::lint::live_marker_pos("//   hmn-lint: allow(x, y)"), 5u);
  EXPECT_EQ(hmn::lint::live_marker_pos("// use `// hmn-lint: hot-path` here"),
            std::string_view::npos);
  EXPECT_EQ(hmn::lint::live_marker_pos("//   // hmn-lint: allow(r, why)"),
            std::string_view::npos);
}

TEST(EnumRegistry, CollectsAndDropsConflictingNames) {
  const auto a = hmn::lint::collect_enums(hmn::lint::lex(
      "enum class Color : unsigned char { kRed, kGreen = 4, kBlue };\n"
      "enum class Shape { kBox };\n"));
  ASSERT_EQ(a.enums.count("Color"), 1u);
  EXPECT_EQ(a.enums.at("Color"),
            (std::vector<std::string>{"kRed", "kGreen", "kBlue"}));

  // Same spelling, different enumerators, in another "file": ambiguous.
  const auto b = hmn::lint::collect_enums(
      hmn::lint::lex("enum class Color { kCyan, kMagenta };\n"));
  hmn::lint::EnumRegistry merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.enums.count("Color"), 0u);
  EXPECT_EQ(merged.enums.count("Shape"), 1u);
  EXPECT_TRUE(std::find(merged.ambiguous.begin(), merged.ambiguous.end(),
                        "Color") != merged.ambiguous.end());
}

// ---- txn-discipline ------------------------------------------------------

TEST(TxnDiscipline, FlagsEveryLeakyPath) {
  const auto f = analyze_fixture("orchestrator/txn_leak.cpp");
  EXPECT_EQ(count_rule(f, "txn-discipline"), 4u);
  EXPECT_TRUE(has_finding(f, "txn-discipline", 9));   // early return leak
  EXPECT_TRUE(has_finding(f, "txn-discipline", 21));  // trailing return leak
  EXPECT_TRUE(has_finding(f, "txn-discipline", 26));  // txn_begin leak
  EXPECT_TRUE(has_finding(f, "txn-discipline", 32));  // falls off the end
}

TEST(TxnDiscipline, CleanShapesStaySilent) {
  const auto f = analyze_fixture("orchestrator/txn_clean.cpp");
  EXPECT_EQ(count_rule(f, "txn-discipline"), 0u);
  EXPECT_EQ(unsuppressed_count(f), 0u);
}

TEST(TxnDiscipline, SuppressionIsAuditedNotDropped) {
  const auto f = analyze_fixture("orchestrator/txn_suppressed.cpp");
  EXPECT_EQ(count_rule(f, "txn-discipline", /*want_suppressed=*/true), 1u);
  EXPECT_EQ(unsuppressed_count(f), 0u);
}

// ---- hot-path-alloc ------------------------------------------------------

TEST(HotPathAlloc, FlagsAllAllocationClassesInAnnotatedBodyOnly) {
  const auto f = analyze_fixture("core/hot_alloc.cpp");
  EXPECT_EQ(count_rule(f, "hot-path-alloc"), 4u);
  EXPECT_TRUE(has_finding(f, "hot-path-alloc", 11));  // unreserved push_back
  EXPECT_TRUE(has_finding(f, "hot-path-alloc", 13));  // std::map local
  EXPECT_TRUE(has_finding(f, "hot-path-alloc", 14));  // make_unique
  EXPECT_TRUE(has_finding(f, "hot-path-alloc", 15));  // new
  // cold_everything repeats the body without the annotation: silent.
  for (const Finding& x : f) {
    EXPECT_LT(x.line, 19u) << "unannotated twin must not be flagged";
  }
}

TEST(HotPathAlloc, ReservedGrowthAndMultilineSignatureAreClean) {
  const auto f = analyze_fixture("core/hot_clean.cpp");
  EXPECT_EQ(unsuppressed_count(f), 0u);
  // And the multi-line-signature annotation really attached (the fixture
  // would pass trivially if it had not).
  // lex() returns views into its input, so the source must outlive them.
  const std::string source =
      read_file(fs::path(HMN_LINT_FIXTURES) / "core" / "hot_clean.cpp");
  const auto lexed = hmn::lint::lex(source);
  const auto fns = hmn::lint::scan_functions(lexed);
  bool multiline_hot = false;
  for (const auto& fn : fns) {
    if (fn.name == "hot_multiline_signature") multiline_hot = fn.hot_path;
  }
  EXPECT_TRUE(multiline_hot);
}

TEST(HotPathAlloc, ColdStartSuppressionIsAudited) {
  const auto f = analyze_fixture("core/hot_suppressed.cpp");
  EXPECT_GE(count_rule(f, "hot-path-alloc", /*want_suppressed=*/true), 1u);
  EXPECT_EQ(unsuppressed_count(f), 0u);
}

// ---- exhaustive-switch ---------------------------------------------------

TEST(ExhaustiveSwitch, FlagsMissingEnumeratorsWithoutDefault) {
  const auto f = analyze_fixture("sim/bad_switch.cpp");
  ASSERT_EQ(count_rule(f, "exhaustive-switch"), 1u);
  for (const Finding& x : f) {
    if (x.rule != "exhaustive-switch") continue;
    EXPECT_NE(x.message.find("kPause"), std::string::npos);
    EXPECT_NE(x.message.find("kResume"), std::string::npos);
  }
}

TEST(ExhaustiveSwitch, FullCoverageOrDefaultIsClean) {
  const auto f = analyze_fixture("sim/clean_switch.cpp");
  EXPECT_EQ(count_rule(f, "exhaustive-switch"), 0u);
  EXPECT_EQ(unsuppressed_count(f), 0u);
}

TEST(ExhaustiveSwitch, CrossFileEnumsResolveThroughRepoContext) {
  hmn::lint::RepoContext repo;
  repo.enums.merge(hmn::lint::collect_enums(hmn::lint::lex(
      "enum class Remote : unsigned char { kOne, kTwo, kThree };\n")));
  const std::string src =
      "int f(Remote r) {\n"
      "  switch (r) {\n"
      "    case Remote::kOne: return 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  const auto with_ctx = hmn::lint::analyze_source(
      "src/core/user.cpp", src, hmn::lint::classify_path("src/core/user.cpp"),
      &repo);
  EXPECT_EQ(count_rule(with_ctx, "exhaustive-switch"), 1u);
  // Without the repo context the enum is unknown — conservatively silent.
  const auto without_ctx = hmn::lint::analyze_source(
      "src/core/user.cpp", src, hmn::lint::classify_path("src/core/user.cpp"));
  EXPECT_EQ(count_rule(without_ctx, "exhaustive-switch"), 0u);
}

TEST(ExhaustiveSwitch, ChecksRealRepoEnumsAcrossFiles) {
  // The repository's own enums, pulled from their real headers: the lint
  // TokenKind, the churn trace EventKind, and the emulation session Phase.
  hmn::lint::RepoContext repo;
  const fs::path root = HMN_LINT_ROOT;
  for (const char* rel : {"tools/lint/lexer.h", "src/workload/churn.h",
                          "src/emulator/session.h"}) {
    repo.enums.merge(
        hmn::lint::collect_enums(hmn::lint::lex(read_file(root / rel))));
  }
  ASSERT_EQ(repo.enums.enums.count("TokenKind"), 1u);
  ASSERT_EQ(repo.enums.enums.count("EventKind"), 1u);
  ASSERT_EQ(repo.enums.enums.count("Phase"), 1u);

  const std::string src =
      "int f(TokenKind k) {\n"
      "  switch (k) {\n"
      "    case TokenKind::kIdentifier: return 1;\n"
      "    case TokenKind::kNumber: return 2;\n"
      "  }\n"
      "  return 0;\n"
      "}\n"
      "int g(Phase p) {\n"
      "  switch (p) {\n"
      "    case Phase::kDefining: return 1;\n"
      "    default: return 0;\n"
      "  }\n"
      "}\n";
  const auto f = hmn::lint::analyze_source(
      "src/core/enum_user.cpp", src,
      hmn::lint::classify_path("src/core/enum_user.cpp"), &repo);
  // The TokenKind switch misses four enumerators; the Phase switch has a
  // default and stays clean.
  ASSERT_EQ(count_rule(f, "exhaustive-switch"), 1u);
  for (const Finding& x : f) {
    if (x.rule != "exhaustive-switch") continue;
    EXPECT_NE(x.message.find("kPreprocessor"), std::string::npos);
  }
}

// ---- relaxed profile -----------------------------------------------------

TEST(Profile, ToolsRunRelaxedButKeepDeterminismAndSwitchRules) {
  const auto f = analyze_fixture("tools/relaxed_tool.cpp");
  EXPECT_EQ(count_rule(f, "raw-random"), 0u);
  EXPECT_EQ(count_rule(f, "float-eq"), 0u);
  EXPECT_EQ(count_rule(f, "raw-output"), 0u);
  EXPECT_EQ(count_rule(f, "unordered-iter"), 1u);
  EXPECT_EQ(count_rule(f, "exhaustive-switch"), 1u);
}

// ---- include-graph layering ----------------------------------------------

TEST(Layering, ModuleMapAndLayersAreDeclared) {
  EXPECT_EQ(hmn::lint::module_of_path("src/core/hosting.cpp"), "core");
  EXPECT_EQ(hmn::lint::module_of_path("expfw/runner.h"), "expfw");
  EXPECT_EQ(hmn::lint::module_of_path("tools/lint/rules.cpp"), std::nullopt);
  EXPECT_EQ(hmn::lint::layer_of_module("util"), 0);
  EXPECT_EQ(hmn::lint::layer_of_module("core"), 1);
  EXPECT_EQ(hmn::lint::layer_of_module("io"), 2);
  EXPECT_EQ(hmn::lint::layer_of_module("orchestrator"), 3);
  EXPECT_EQ(hmn::lint::layer_of_module("nonexistent"), std::nullopt);
}

TEST(Layering, UpwardEdgeIsAFinding) {
  hmn::lint::IncludeGraph g;
  g.add_file("src/core/bad.cpp", {{"expfw/runner.h", 4}, {"util/rng.h", 5}});
  const auto f = g.check();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-layering");
  EXPECT_EQ(f[0].file, "src/core/bad.cpp");
  EXPECT_EQ(f[0].line, 4u);
  EXPECT_NE(f[0].message.find("expfw"), std::string::npos);
}

TEST(Layering, SameLayerCycleIsAFinding) {
  hmn::lint::IncludeGraph g;
  g.add_file("src/model/a.h", {{"topology/t.h", 1}});
  g.add_file("src/topology/t.h", {{"model/a.h", 1}});
  const auto f = g.check();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-layering");
  EXPECT_NE(f[0].message.find("cycle"), std::string::npos);
  EXPECT_NE(f[0].message.find("model"), std::string::npos);
  EXPECT_NE(f[0].message.find("topology"), std::string::npos);
}

TEST(Layering, AcyclicDownwardGraphIsCleanAndRendersDot) {
  hmn::lint::IncludeGraph g;
  g.add_file("src/core/a.cpp", {{"model/m.h", 2}, {"util/u.h", 3}});
  g.add_file("src/model/m.h", {{"graph/g.h", 1}});
  EXPECT_TRUE(g.check().empty());
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("core"), std::string::npos);
  EXPECT_NE(dot.find("\"core\" -> \"model\""), std::string::npos);
}

TEST(Layering, FixtureCanaryScansDirty) {
  const fs::path p =
      fs::path(HMN_LINT_FIXTURES) / "layering" / "src" / "core" /
      "bad_upward.cpp";
  hmn::lint::IncludeGraph g;
  g.add_file("layering/src/core/bad_upward.cpp",
             hmn::lint::collect_includes(hmn::lint::lex(read_file(p))));
  const auto f = g.check();
  ASSERT_EQ(f.size(), 1u);
  EXPECT_EQ(f[0].rule, "include-layering");
  EXPECT_EQ(f[0].line, 4u);
}

// ---- baseline v2 / ratchet -----------------------------------------------

TEST(BaselineV2, RoundTripsSuppressedPairsAndCoversThem) {
  Finding live;
  live.file = "src/a.cpp";
  live.rule = "float-eq";
  live.message = "raw == on double";
  Finding sup;
  sup.file = "src/b.cpp";
  sup.rule = "unordered-iter";
  sup.message = "iteration over hash order";
  sup.suppressed = true;
  sup.suppression_reason = "lookup only";

  const std::string doc = hmn::lint::write_baseline({live, sup});
  hmn::lint::Baseline loaded;
  ASSERT_TRUE(hmn::lint::load_baseline(doc, loaded));
  ASSERT_EQ(loaded.keys.size(), 1u);
  ASSERT_EQ(loaded.suppressed_pairs.size(), 1u);
  EXPECT_TRUE(loaded.covers_suppressed(sup));
  Finding drifted = sup;
  drifted.file = "src/c.cpp";  // a suppression in a new file: not audited
  EXPECT_FALSE(loaded.covers_suppressed(drifted));
  EXPECT_TRUE(loaded.absorb(live));
  EXPECT_FALSE(loaded.absorb(live)) << "each key absorbs exactly once";
}

TEST(BaselineV2, Version1DocumentsStillLoad) {
  const std::string v1 =
      "{\"entries\": [\n"
      "  {\"file\": \"src/x.cpp\", \"rule\": \"raw-random\", "
      "\"message\": \"rand()\"}\n"
      "]}\n";
  hmn::lint::Baseline loaded;
  ASSERT_TRUE(hmn::lint::load_baseline(v1, loaded));
  EXPECT_EQ(loaded.keys.size(), 1u);
  EXPECT_TRUE(loaded.suppressed_pairs.empty());
}

// ---- the capstone: the real repository, two-pass --------------------------

TEST(RepoScanV2, WholeRepoIsCleanAndModuleDagIsAcyclic) {
  const fs::path root = HMN_LINT_ROOT;
  std::vector<fs::path> files;
  for (const char* top : {"src", "tools", "bench", "examples"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root / top)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".h") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GT(files.size(), 150u);

  // Pass 1: whole-repo view.
  std::vector<std::string> sources;
  std::vector<std::string> rels;
  sources.reserve(files.size());
  rels.reserve(files.size());
  hmn::lint::IncludeGraph graph;
  hmn::lint::RepoContext repo;
  for (const fs::path& p : files) {
    sources.push_back(read_file(p));
    rels.push_back(fs::relative(p, root).generic_string());
    const auto lexed = hmn::lint::lex(sources.back());
    graph.add_file(rels.back(), hmn::lint::collect_includes(lexed));
    repo.enums.merge(hmn::lint::collect_enums(lexed));
  }
  EXPECT_EQ(graph.file_count(), files.size());

  // Pass 2: per-file rules with context, plus the layering pass.
  std::size_t dirty_files = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto findings = hmn::lint::analyze_source(
        rels[i], sources[i], hmn::lint::classify_path(rels[i]), &repo);
    const std::size_t live = unsuppressed_count(findings);
    if (live != 0) {
      ++dirty_files;
      for (const Finding& f : findings) {
        if (!f.suppressed) {
          ADD_FAILURE() << f.file << ':' << f.line << ": " << f.rule << ": "
                        << f.message;
        }
      }
    }
  }
  EXPECT_EQ(dirty_files, 0u);

  // The declared module DAG must be real: no upward edges, no cycles.
  const auto layering = graph.check();
  for (const Finding& f : layering) {
    ADD_FAILURE() << f.file << ':' << f.line << ": " << f.message;
  }
  EXPECT_TRUE(layering.empty());

  // And the DOT artifact renders every declared layer.
  const std::string dot = graph.to_dot();
  for (const char* module : {"util", "graph", "core", "model", "io",
                             "orchestrator", "emulator", "expfw", "sim"}) {
    EXPECT_NE(dot.find("\"" + std::string(module) + "\""), std::string::npos)
        << module;
  }
}

}  // namespace
