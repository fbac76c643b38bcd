/**
 * @file
 * litmus-lint rule tests.
 *
 * Two layers:
 *  - fixture scans: tests/lint_fixtures/{bad,good} are miniature src/
 *    trees with one failing and one passing file per rule; the bad
 *    tree must produce exactly the expected (file, line, rule)
 *    triples and the good tree must be spotless.
 *  - lintContent unit tests: pragma mechanics (one pragma suppresses
 *    exactly one finding, bare-line targeting, stale/malformed
 *    pragmas), comment/string stripping, and member-call exemptions.
 *  - cross-file rule tests: the fixture trees double as miniature
 *    whole-program scans (lock-annotation, lock-order cycles and the
 *    canonical-order file, include-graph exports), plus the
 *    --fix-stale rewriting engine.
 *
 * The fixture root is injected by CMake as LITMUS_LINT_FIXTURE_DIR.
 */

#include "lint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace
{

using litmus::lint::Finding;
using litmus::lint::Options;
using litmus::lint::Report;
using litmus::lint::runLint;

/** Options scanning one fixture tree ("bad" or "good"). */
Options
fixtureOptions(const std::string &tree)
{
    Options options;
    options.root = std::string(LITMUS_LINT_FIXTURE_DIR) + "/" + tree;
    options.dirs = {"src"};
    return options;
}

/** Findings as sorted "file:line:rule" triples for whole-tree diffs. */
std::vector<std::string>
triples(const std::vector<Finding> &findings)
{
    std::vector<std::string> out;
    for (const Finding &f : findings)
        out.push_back(f.file + ":" + std::to_string(f.line) + ":" +
                      f.rule);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Finding>
lintOne(const std::string &path, const std::string &content,
        int *suppressions = nullptr)
{
    return litmus::lint::lintContent(path, content, Options{},
                                     suppressions);
}

// ---------------------------------------------------------------- //
// Fixture trees                                                    //
// ---------------------------------------------------------------- //

TEST(LintFixtures, BadTreeFiresEveryRuleAtTheExpectedLocation)
{
    const Report report = runLint(fixtureOptions("bad"));
    const std::vector<std::string> expected = {
        "src/common/bad_allow_bad.cc:2:bad-allow",
        "src/common/bad_allow_bad.cc:3:bad-allow",
        "src/common/raw_parse_bad.cc:7:raw-parse",
        "src/common/raw_parse_bad.cc:7:raw-parse",
        "src/common/stale_allow_bad.cc:2:stale-allow",
        "src/common/test_only_bad.h:3:test-only",
        "src/core/billing_float_bad.cc:2:float-billing",
        "src/core/billing_float_bad.cc:4:float-billing",
        "src/core/unordered_decl_bad.h:10:unordered-decl",
        "src/core/unordered_iter_bad.cc:10:unordered-iter",
        "src/core/unordered_iter_bad.cc:12:unordered-iter",
        "src/core/unused_include_bad.cc:4:include-graph",
        "src/sim/include_cycle_a.h:2:include-graph",
        "src/sim/include_cycle_b.h:2:include-graph",
        "src/sim/layering_bad.cc:2:layering",
        "src/sim/layering_bad.cc:3:layering",
        "src/sim/lock_annotation_bad.h:10:lock-annotation",
        "src/sim/lock_annotation_bad.h:20:lock-annotation",
        "src/sim/lock_order_a.cc:10:lock-order",
        "src/sim/lock_order_b.cc:10:lock-order",
        "src/sim/wall_clock_bad.cc:7:wall-clock",
        "src/sim/wall_clock_bad.cc:9:wall-clock",
        "src/workload/unseeded_rng_bad.cc:7:unseeded-rng",
        "src/workload/unseeded_rng_bad.cc:8:unseeded-rng",
        "src/workload/unseeded_rng_bad.cc:9:unseeded-rng",
    };
    EXPECT_EQ(triples(report.findings), expected);
    EXPECT_EQ(report.filesScanned, 18);
    // The iteration fixture ALLOWs its declaration to isolate the
    // iteration rule.
    EXPECT_EQ(report.suppressions, 1);
}

TEST(LintFixtures, GoodTreeIsCleanAndEveryPragmaIsUsed)
{
    const Report report = runLint(fixtureOptions("good"));
    EXPECT_TRUE(report.clean()) << litmus::lint::toJson(report);
    EXPECT_EQ(report.filesScanned, 14);
    // The discipline fixtures are clean cross-file too: no unused
    // includes, no header without a caller, and the lock graph orders
    // alpha_mu_ before beta_mu_.
    EXPECT_TRUE(report.advisories.empty());
    // decl 1 + iter-fixture 2 + stale-allow 1 + bad-allow 1: a stale
    // or malformed pragma in a good file would surface as a finding.
    EXPECT_EQ(report.suppressions, 5);
}

TEST(LintFixtures, EveryCatalogRuleHasAFailingFixture)
{
    const Report report = runLint(fixtureOptions("bad"));
    for (const litmus::lint::RuleInfo &rule :
         litmus::lint::ruleCatalog()) {
        const bool fired = std::any_of(
            report.findings.begin(), report.findings.end(),
            [&](const Finding &f) { return f.rule == rule.name; });
        EXPECT_TRUE(fired) << "no failing fixture for rule '"
                           << rule.name << "'";
    }
}

TEST(LintFixtures, RuleFilterScopesTheScan)
{
    Options options = fixtureOptions("bad");
    options.rules = {"wall-clock"};
    const Report report = runLint(options);
    // The pragma rules always run: a filter narrows the scan, it
    // must not hide rotting annotations.
    const std::vector<std::string> expected = {
        "src/common/bad_allow_bad.cc:2:bad-allow",
        "src/common/bad_allow_bad.cc:3:bad-allow",
        "src/common/stale_allow_bad.cc:2:stale-allow",
        "src/sim/wall_clock_bad.cc:7:wall-clock",
        "src/sim/wall_clock_bad.cc:9:wall-clock",
    };
    EXPECT_EQ(triples(report.findings), expected);
}

TEST(LintFixtures, UnknownRuleFilterThrows)
{
    Options options = fixtureOptions("good");
    options.rules = {"no-such-rule"};
    EXPECT_THROW(runLint(options), std::runtime_error);
}

// ---------------------------------------------------------------- //
// Pragma mechanics                                                 //
// ---------------------------------------------------------------- //

TEST(LintPragmas, OnePragmaSuppressesExactlyOneFinding)
{
    // Two float declarations on one line, one pragma: one finding
    // must survive.
    int suppressions = 0;
    const auto findings = lintOne(
        "src/core/billing_fixture.cc",
        "float a; float b; // LITMUS-LINT-ALLOW(float-billing): one\n",
        &suppressions);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "float-billing");
    EXPECT_EQ(findings[0].line, 1);
    EXPECT_EQ(suppressions, 1);

    // A second pragma clears the line.
    suppressions = 0;
    const auto clean = lintOne(
        "src/core/billing_fixture.cc",
        "// LITMUS-LINT-ALLOW(float-billing): first of two\n"
        "float a; float b; // LITMUS-LINT-ALLOW(float-billing): two\n",
        &suppressions);
    EXPECT_TRUE(clean.empty());
    EXPECT_EQ(suppressions, 2);
}

TEST(LintPragmas, BareLinePragmaGuardsTheNextLine)
{
    const auto findings = lintOne(
        "src/core/billing_fixture.cc",
        "// LITMUS-LINT-ALLOW(float-billing): guards the next line\n"
        "float a;\n");
    EXPECT_TRUE(findings.empty());

    // ...and only the next line.
    const auto tooFar = lintOne(
        "src/core/billing_fixture.cc",
        "// LITMUS-LINT-ALLOW(float-billing): line 2 is blank\n"
        "\n"
        "float a;\n");
    ASSERT_EQ(tooFar.size(), 2u);
    EXPECT_EQ(triples(tooFar),
              (std::vector<std::string>{
                  "src/core/billing_fixture.cc:1:stale-allow",
                  "src/core/billing_fixture.cc:3:float-billing"}));
}

TEST(LintPragmas, WrongRulePragmaIsStaleAndSuppressesNothing)
{
    const auto findings = lintOne(
        "src/core/billing_fixture.cc",
        "float a; // LITMUS-LINT-ALLOW(wall-clock): wrong rule\n");
    EXPECT_EQ(triples(findings),
              (std::vector<std::string>{
                  "src/core/billing_fixture.cc:1:float-billing",
                  "src/core/billing_fixture.cc:1:stale-allow"}));
}

TEST(LintPragmas, MalformedPragmasAreFindings)
{
    const auto missingReason = lintOne(
        "src/common/fixture.cc",
        "// LITMUS-LINT-ALLOW(wall-clock)\n");
    ASSERT_EQ(missingReason.size(), 1u);
    EXPECT_EQ(missingReason[0].rule, "bad-allow");

    const auto unknownRule = lintOne(
        "src/common/fixture.cc",
        "// LITMUS-LINT-ALLOW(flux-capacitor): nope\n");
    ASSERT_EQ(unknownRule.size(), 1u);
    EXPECT_EQ(unknownRule[0].rule, "bad-allow");

    const auto emptyReason = lintOne(
        "src/common/fixture.cc",
        "// LITMUS-LINT-ALLOW(wall-clock):   \n");
    ASSERT_EQ(emptyReason.size(), 1u);
    EXPECT_EQ(emptyReason[0].rule, "bad-allow");
}

// ---------------------------------------------------------------- //
// Stripping and exemptions                                         //
// ---------------------------------------------------------------- //

TEST(LintStripping, CommentsAndStringsNeverFire)
{
    const auto findings = lintOne(
        "src/sim/fixture.cc",
        "// rand() and system_clock in a comment\n"
        "/* strtod(text) in a block comment */\n"
        "const char *msg = \"rand() inside a string literal\";\n");
    EXPECT_TRUE(findings.empty()) << triples(findings)[0];
}

TEST(LintStripping, LineNumbersSurviveMultiLineConstructs)
{
    const auto findings = lintOne(
        "src/sim/fixture.cc",
        "/* a block comment\n"
        "   spanning three\n"
        "   lines */\n"
        "float ignored; // not a billing file\n"
        "double now = time(nullptr);\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "wall-clock");
    EXPECT_EQ(findings[0].line, 5);
}

TEST(LintExemptions, MemberCallsNamedLikeBannedFunctionsAreFine)
{
    const auto findings = lintOne(
        "src/sim/fixture.cc",
        "double fixture(const Task &task, Snapshot *snap)\n"
        "{\n"
        "    return task.time() + snap->clock() + sched::time(0);\n"
        "}\n");
    EXPECT_TRUE(findings.empty()) << triples(findings)[0];

    // std:: qualification is still the banned libc call.
    const auto stdCall = lintOne("src/sim/fixture.cc",
                                 "long t = std::time(nullptr);\n");
    ASSERT_EQ(stdCall.size(), 1u);
    EXPECT_EQ(stdCall[0].rule, "wall-clock");
}

TEST(LintExemptions, RulesAreScopedToSrc)
{
    // raw-parse, unordered-decl, and float-billing are src/-only
    // invariants; tools and bench may parse leniently.
    const auto findings = lintOne(
        "tools/report/billing_fixture.cc",
        "std::unordered_map<int, float> m;\n"
        "double d = atof(\"1.5\");\n");
    EXPECT_TRUE(findings.empty()) << triples(findings)[0];
}

TEST(LintExemptions, RngHomeMayNameTheBannedTokens)
{
    const auto findings = lintOne(
        "src/common/rng.h", "std::mt19937_64 engine_;\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintLayering, DownwardAndSameLayerIncludesPass)
{
    const auto findings = lintOne(
        "src/scenario/fixture.cc",
        "#include \"cluster/cluster.h\"\n"
        "#include \"common/rng.h\"\n"
        "#include \"scenario/spec.h\"\n");
    EXPECT_TRUE(findings.empty());
}

TEST(LintLayering, UpwardIncludeNamesBothEnds)
{
    const auto findings = lintOne(
        "src/common/fixture.cc",
        "#include \"scenario/spec.h\"\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "layering");
    EXPECT_NE(findings[0].message.find("common/"), std::string::npos);
    EXPECT_NE(findings[0].message.find("scenario/spec.h"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
// Cross-file rules                                                 //
// ---------------------------------------------------------------- //

TEST(LintTree, LockOrderCycleNamesBothMutexes)
{
    const Report report = runLint(fixtureOptions("bad"));
    const auto it = std::find_if(
        report.findings.begin(), report.findings.end(),
        [](const Finding &f) {
            return f.rule == "lock-order" &&
                   f.file == "src/sim/lock_order_a.cc";
        });
    ASSERT_NE(it, report.findings.end());
    EXPECT_NE(it->message.find("alpha_mu_"), std::string::npos);
    EXPECT_NE(it->message.find("beta_mu_"), std::string::npos);
}

TEST(LintTree, GoodTreeLockOrderPutsAlphaBeforeBeta)
{
    const Report report = runLint(fixtureOptions("good"));
    const std::string &text = report.lockOrderText;
    const auto alpha = text.find("OrderPair::alpha_mu_");
    const auto beta = text.find("OrderPair::beta_mu_");
    ASSERT_NE(alpha, std::string::npos) << text;
    ASSERT_NE(beta, std::string::npos) << text;
    EXPECT_LT(alpha, beta) << text;
    // The nesting that forced the order is recorded as a comment.
    EXPECT_NE(
        text.find("-> src/sim/lock_order_pair.h:OrderPair::beta_mu_"),
        std::string::npos)
        << text;
}

TEST(LintTree, LockOrderFileMismatchIsAFinding)
{
    Options options = fixtureOptions("good");
    options.lockOrderFile = "tools/lint/lock_order.txt";
    options.lockOrderExpected = "stale content\n";
    const Report stale = runLint(options);
    const auto t = triples(stale.findings);
    EXPECT_NE(std::find(t.begin(), t.end(),
                        "tools/lint/lock_order.txt:1:lock-order"),
              t.end());

    // With the derived order as the expected content, the scan is
    // clean again.
    options.lockOrderExpected = stale.lockOrderText;
    EXPECT_TRUE(runLint(options).clean());
}

TEST(LintTree, IncludeGraphExportsResolvedEdges)
{
    const Report report = runLint(fixtureOptions("good"));
    EXPECT_NE(report.includeGraphJson.find(
                  "\"from\": \"src/sim/include_chain.h\""),
              std::string::npos);
    EXPECT_NE(report.includeGraphJson.find(
                  "\"to\": \"src/sim/lock_order_pair.h\""),
              std::string::npos);
    EXPECT_NE(report.includeGraphDot.find(
                  "\"src/sim/include_chain.h\" -> "
                  "\"src/sim/lock_order_pair.h\""),
              std::string::npos);
}

TEST(LintTree, TreeRulePragmasBelongToTreeScans)
{
    // lintContent neither applies nor stales a cross-file pragma.
    const auto findings = lintOne(
        "src/sim/fixture.h",
        "// LITMUS-LINT-ALLOW(lock-annotation): fixture\n"
        "std::mutex mu_;\n");
    EXPECT_TRUE(findings.empty()) << triples(findings)[0];

    // The tree pass applies it...
    using litmus::lint::SourceFile;
    const std::vector<SourceFile> suppressed = {
        {"src/sim/one.cc",
         "class Legacy\n"
         "{\n"
         "    // LITMUS-LINT-ALLOW(lock-annotation): audited fixture\n"
         "    std::mutex mu_;\n"
         "};\n"}};
    const Report ok = litmus::lint::lintFiles(suppressed, Options{});
    EXPECT_TRUE(ok.clean()) << litmus::lint::toJson(ok);
    EXPECT_EQ(ok.suppressions, 1);

    // ...and stales it when it suppresses nothing.
    const std::vector<SourceFile> unused = {
        {"src/sim/one.cc",
         "// LITMUS-LINT-ALLOW(lock-order): nothing here\n"
         "int x = 0;\n"}};
    const Report stale = litmus::lint::lintFiles(unused, Options{});
    EXPECT_EQ(triples(stale.findings),
              (std::vector<std::string>{
                  "src/sim/one.cc:1:stale-allow"}));
}

TEST(LintTree, UnusedIncludeBlocksInSrcAndAdvisesElsewhere)
{
    using litmus::lint::SourceFile;
    const std::vector<SourceFile> files = {
        {"src/common/units.h",
         "constexpr unsigned long long\n"
         "operator\"\"_KiB(unsigned long long v) { return v << 10; }\n"
         "using Bytes = unsigned long long;\n"},
        {"src/common/size.h", "struct Size { int n; };\n"},
        // A literal suffix counts as a use of the header defining it.
        {"src/sim/cache.cc",
         "#include \"common/units.h\"\n"
         "#include \"common/size.h\"\n"
         "const auto kLine = 64_KiB;\n"},
        {"bench/probe.cc", "#include \"src/common/size.h\"\n"},
    };
    const Report report = litmus::lint::lintFiles(files, Options{});
    EXPECT_EQ(triples(report.findings),
              (std::vector<std::string>{
                  "src/sim/cache.cc:2:include-graph"}));
    EXPECT_EQ(triples(report.advisories),
              (std::vector<std::string>{
                  "bench/probe.cc:1:include-graph"}));
}

TEST(LintTree, TestOnlyHeaderNeedsACallerBesidesItsOwnCc)
{
    using litmus::lint::SourceFile;
    std::vector<SourceFile> files = {
        {"src/sim/widget.h", "// A widget.\nstruct Widget {};\n"},
        {"src/sim/widget.cc",
         "#include \"sim/widget.h\"\nWidget make() { return {}; }\n"},
    };
    const Report alone = litmus::lint::lintFiles(files, Options{});
    EXPECT_EQ(triples(alone.findings),
              (std::vector<std::string>{"src/sim/widget.h:2:test-only"}));

    // A bare pragma above the first code line records why it stays.
    files[0].content =
        "// LITMUS-LINT-ALLOW(test-only): kept for an external tool\n"
        "struct Widget {};\n";
    const Report allowed = litmus::lint::lintFiles(files, Options{});
    EXPECT_TRUE(allowed.clean()) << litmus::lint::toJson(allowed);
    EXPECT_EQ(allowed.suppressions, 1);

    // Any other scanned includer, in or out of src/, is a caller.
    files[0].content = "struct Widget {};\n";
    files.push_back({"apps/tool.cc",
                     "#include \"src/sim/widget.h\"\nWidget w;\n"});
    EXPECT_TRUE(litmus::lint::lintFiles(files, Options{}).clean());
}

// ---------------------------------------------------------------- //
// --fix-stale engine                                               //
// ---------------------------------------------------------------- //

TEST(LintFixStale, StripsBareAndTrailingPragmasIdempotently)
{
    const std::string content =
        "// LITMUS-LINT-ALLOW(wall-clock): stale bare line\n"
        "double x = 1.0; // LITMUS-LINT-ALLOW(float-billing): bill\n"
        "double y = 2.0;\n";
    const std::string fixed =
        litmus::lint::stripStalePragmas(content, {1, 2});
    EXPECT_EQ(fixed, "double x = 1.0;\ndouble y = 2.0;\n");
    // Idempotent: stripping the result again is a no-op...
    EXPECT_EQ(litmus::lint::stripStalePragmas(fixed, {1, 2}), fixed);
    // ...and the fix leaves nothing for the linter to stale.
    EXPECT_TRUE(lintOne("src/sim/fixture.cc", fixed).empty());
}

TEST(LintFixStale, LinesWithoutPragmasAreLeftAlone)
{
    const std::string content =
        "double x = 1.0;\n"
        "double y = 2.0; // a plain comment stays\n";
    EXPECT_EQ(litmus::lint::stripStalePragmas(content, {1, 2}),
              content);
}

// ---------------------------------------------------------------- //
// Report plumbing                                                  //
// ---------------------------------------------------------------- //

TEST(LintReport, JsonCarriesTotalsAndEscapes)
{
    const Report report = runLint(fixtureOptions("bad"));
    const std::string json = litmus::lint::toJson(report);
    EXPECT_NE(json.find("\"files_scanned\": 18"), std::string::npos);
    EXPECT_NE(json.find("\"finding_count\": 25"), std::string::npos);
    EXPECT_NE(json.find("\"suppressions\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"wall-clock\""),
              std::string::npos);
    // Messages quote code (`float`): the backtick passes, but any
    // embedded quote must be escaped.
    EXPECT_EQ(json.find("\\\"`"), std::string::npos);
}

TEST(LintReport, CatalogAndKnownRuleAgree)
{
    const auto &rules = litmus::lint::ruleCatalog();
    ASSERT_EQ(rules.size(), 13u);
    for (const auto &rule : rules) {
        EXPECT_TRUE(litmus::lint::knownRule(rule.name));
        EXPECT_FALSE(rule.description.empty());
    }
    EXPECT_FALSE(litmus::lint::knownRule("flux-capacitor"));
}

} // namespace
