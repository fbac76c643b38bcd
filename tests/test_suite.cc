/**
 * @file
 * Tests for the Table 1 benchmark suite.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/calibration.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

namespace litmus::workload
{
namespace
{

TEST(Suite, TwentySevenFunctions)
{
    EXPECT_EQ(table1Suite().size(), 27u);
    EXPECT_EQ(allFunctions().size(), 27u);
}

TEST(Suite, ThirteenReferences)
{
    EXPECT_EQ(referenceSet().size(), 13u);
}

TEST(Suite, FourteenTestFunctions)
{
    EXPECT_EQ(testSet().size(), 14u);
}

TEST(Suite, ReferenceAndTestDisjoint)
{
    for (const FunctionSpec &spec : table1Suite())
        EXPECT_FALSE(spec.reference && spec.testSet) << spec.name;
}

TEST(Suite, UniqueNames)
{
    std::set<std::string> names;
    for (const FunctionSpec &spec : table1Suite())
        names.insert(spec.name);
    EXPECT_EQ(names.size(), 27u);
}

TEST(Suite, AllThreeLanguagesPresent)
{
    std::set<Language> langs;
    for (const FunctionSpec &spec : table1Suite())
        langs.insert(spec.language);
    EXPECT_EQ(langs.size(), 3u);
}

TEST(Suite, SuffixMatchesLanguage)
{
    for (const FunctionSpec &spec : table1Suite()) {
        const std::string suffix(
            nameOf(kLanguageSuffixes, spec.language));
        ASSERT_GT(spec.name.size(), suffix.size());
        EXPECT_EQ(spec.name.substr(spec.name.size() - suffix.size()),
                  suffix)
            << spec.name;
    }
}

TEST(Suite, AllSpecsValidate)
{
    for (const FunctionSpec &spec : table1Suite())
        EXPECT_NO_FATAL_FAILURE(spec.validate());
}

TEST(Suite, MemoryIntensiveSetMatchesPaper)
{
    const auto set = memoryIntensiveSet();
    EXPECT_EQ(set.size(), 8u);
    std::set<std::string> names;
    for (const FunctionSpec *spec : set)
        names.insert(spec->name);
    EXPECT_TRUE(names.contains("thum-py"));
    EXPECT_TRUE(names.contains("geo-go"));
    EXPECT_TRUE(names.contains("bfs-py"));
}

TEST(Suite, ByNameLookup)
{
    EXPECT_EQ(functionByName("pager-py").language, Language::Python);
    EXPECT_TRUE(functionByName("fib-nj").reference);
    EXPECT_EXIT(functionByName("nope"), ::testing::ExitedWithCode(1),
                "unknown function");
}

TEST(Suite, TriplicatedFunctions)
{
    // Authen, Fibonacci and AES exist in all three languages.
    for (const char *base : {"auth", "fib", "aes"}) {
        for (const char *suffix : {"-py", "-nj", "-go"}) {
            const std::string name = std::string(base) + suffix;
            EXPECT_NO_FATAL_FAILURE(functionByName(name)) << name;
        }
    }
}

TEST(Suite, NominalProgramStartsWithStartup)
{
    const FunctionSpec &spec = functionByName("aes-py");
    const std::vector<sim::Phase> program = spec.nominalProgram();
    EXPECT_EQ(program.front().name,
              startupProgram(Language::Python).front().name);
    EXPECT_DOUBLE_EQ(
        sim::totalInstructions(program),
        sim::totalInstructions(startupProgram(Language::Python)) +
            sim::totalInstructions(spec.body));
}

TEST(Suite, SoloSharedShareCharacterization)
{
    // The calibrated suite must reproduce the paper's Figure 4
    // structure: float-py nearly all-private, graph workloads heavy on
    // shared time.
    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto share = [&](const char *name) {
        const auto solo = pricing::measureSoloBaseline(
            machine, functionByName(name));
        return solo.sharedCpi / solo.totalCpi();
    };
    EXPECT_LT(share("float-py"), 0.02);
    EXPECT_GT(share("pager-py"), 0.08);
    EXPECT_GT(share("fib-nj"), 0.08);
    EXPECT_GT(share("pager-py"), share("float-py") * 5);
    EXPECT_LT(share("fib-go"), 0.05);
}

TEST(Suite, MemoryFootprintsReasonable)
{
    for (const FunctionSpec &spec : table1Suite()) {
        EXPECT_GE(spec.memoryFootprint, 128_MiB) << spec.name;
        EXPECT_LE(spec.memoryFootprint, 1024_MiB) << spec.name;
    }
}

} // namespace
} // namespace litmus::workload
