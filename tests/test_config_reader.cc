/**
 * @file
 * Tests for the key=value configuration reader and machine overrides.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config_reader.h"
#include "sim/machine_catalog.h"

namespace litmus
{
namespace
{

TEST(ConfigReader, ParsesBasics)
{
    const auto cfg = ConfigReader::fromString(
        "a = 1\n"
        "b=hello   # trailing comment\n"
        "# full comment line\n"
        "\n"
        "c = 2.5\n");
    EXPECT_TRUE(cfg.contains("a"));
    EXPECT_EQ(cfg.get("a"), "1");
    EXPECT_EQ(cfg.get("b"), "hello");
    EXPECT_DOUBLE_EQ(cfg.getDouble("c", 0), 2.5);
    ASSERT_EQ(cfg.entries().size(), 3u);
    EXPECT_EQ(cfg.entries()[2].key, "c");
    EXPECT_EQ(cfg.entries()[2].line, 5);
}

TEST(ConfigReader, FallbacksWhenMissing)
{
    const auto cfg = ConfigReader::fromString("x = 1\n");
    EXPECT_DOUBLE_EQ(cfg.getDouble("nope", 1.25), 1.25);
    EXPECT_EQ(cfg.getString("nope", "d"), "d");
}

TEST(ConfigReader, MalformedLineFatal)
{
    EXPECT_EXIT(ConfigReader::fromString("not a pair\n"),
                ::testing::ExitedWithCode(1), "key=value");
}

TEST(ConfigReader, MalformedLineReportsLineNumber)
{
    EXPECT_EXIT(ConfigReader::fromString("a = 1\n\n# note\nbroken\n"),
                ::testing::ExitedWithCode(1),
                "<config>:4: not key=value: 'broken'");
}

TEST(ConfigReader, EmptyKeyFatal)
{
    EXPECT_EXIT(ConfigReader::fromString("= orphan value\n"),
                ::testing::ExitedWithCode(1), "empty key");
}

TEST(ConfigReader, CommentedEqualsIsMalformed)
{
    // The comment strips the '=', leaving a bare token.
    EXPECT_EXIT(ConfigReader::fromString("cores # = 4\n"),
                ::testing::ExitedWithCode(1), "key=value");
}

TEST(ConfigReader, EmptyValueIsAllowed)
{
    const auto cfg = ConfigReader::fromString("k =\n");
    EXPECT_TRUE(cfg.contains("k"));
    EXPECT_EQ(cfg.get("k"), "");
}

TEST(ConfigReader, TrailingGarbageIntFatal)
{
    const auto cfg = ConfigReader::fromString("x = 12abc\n");
    EXPECT_EXIT((void)cfg.getDouble("x", 0), ::testing::ExitedWithCode(1),
                "<config>:1: 'x' expects a finite number, got '12abc'");
}

TEST(ConfigReader, MalformedDoubleFatal)
{
    const auto cfg = ConfigReader::fromString("x = 1.5ghz\n");
    EXPECT_EXIT((void)cfg.getDouble("x", 0),
                ::testing::ExitedWithCode(1), "number");
}

TEST(ConfigReader, FromFileRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "config_reader_roundtrip.conf";
    {
        std::ofstream out(path);
        out << "# fleet override\ncores = 48\nbase_ghz = 3.0\n";
    }
    const auto cfg = ConfigReader::fromFile(path);
    std::remove(path.c_str());
    EXPECT_DOUBLE_EQ(cfg.getDouble("cores", 0), 48);
    EXPECT_DOUBLE_EQ(cfg.getDouble("base_ghz", 0), 3.0);
    EXPECT_EQ(cfg.source(), path);
    EXPECT_EQ(cfg.at("base_ghz").line, 3);
}

TEST(ConfigReader, MalformedNumberFatal)
{
    const auto cfg = ConfigReader::fromString("x = abc\n");
    EXPECT_EXIT((void)cfg.getDouble("x", 0), ::testing::ExitedWithCode(1),
                "<config>:1: 'x' expects a finite number, got 'abc'");
}

TEST(ConfigReader, MissingKeyFatal)
{
    const ConfigReader cfg;
    EXPECT_EXIT((void)cfg.get("ghost"), ::testing::ExitedWithCode(1),
                "missing key");
}

TEST(ConfigReader, MissingFileFatal)
{
    EXPECT_EXIT(ConfigReader::fromFile("/nonexistent/path.conf"),
                ::testing::ExitedWithCode(1),
                "cannot read '/nonexistent/path\\.conf'");
}

TEST(ConfigReader, SetOverrides)
{
    ConfigReader cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.get("k"), "2");
    EXPECT_EQ(cfg.entries().size(), 1u);
}

TEST(ConfigReader, DuplicateKeyFatal)
{
    // A repeated key names both of its lines.
    EXPECT_EXIT(ConfigReader::fromString("seed = 1\n"
                                         "rate = 2\n"
                                         "\n"
                                         "# again\n"
                                         "seed = 3\n",
                                         "dup.scenario"),
                ::testing::ExitedWithCode(1),
                "dup\\.scenario:5: duplicate key 'seed' \\(first on line "
                "1\\)");
}

TEST(ConfigReader, CrlfAndPaddingAreStripped)
{
    const auto cfg =
        ConfigReader::fromString("  a\t=\t1 \r\n\r\n b = x=y # c\r\n");
    EXPECT_EQ(cfg.get("a"), "1");
    EXPECT_EQ(cfg.get("b"), "x=y");
    EXPECT_EQ(cfg.at("b").line, 3);
}

TEST(MachineOverrides, AppliesRecognizedKeys)
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto cfg = ConfigReader::fromString(
        "cores = 48\n"
        "base_ghz = 3.0\n"
        "l3_capacity_mib = 60\n"
        "mem_service_rate = 2.4\n"
        "residency_factor = 0.1\n"
        "time_slice_ms = 2\n"
        "memory_capacity_gib = 512\n");
    applyMachineOverrides(machine, cfg);
    EXPECT_EQ(machine.cores, 48u);
    EXPECT_DOUBLE_EQ(machine.baseFrequency, 3.0e9);
    EXPECT_EQ(machine.l3Capacity, 60_MiB);
    EXPECT_DOUBLE_EQ(machine.memServiceRate, 2.4);
    EXPECT_DOUBLE_EQ(machine.residencyFactor, 0.1);
    EXPECT_DOUBLE_EQ(machine.timeSlice, 2e-3);
    EXPECT_EQ(machine.memoryCapacity, 512_GiB);
}

TEST(MachineOverrides, UnknownKeyFatal)
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto cfg = ConfigReader::fromString("coresss = 2\n");
    EXPECT_EXIT(applyMachineOverrides(machine, cfg),
                ::testing::ExitedWithCode(1), "unknown key");
}

TEST(MachineOverrides, InvalidResultFatal)
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto cfg = ConfigReader::fromString("cores = 0\n");
    EXPECT_EXIT(applyMachineOverrides(machine, cfg),
                ::testing::ExitedWithCode(1), "cores");
}

} // namespace
} // namespace litmus
