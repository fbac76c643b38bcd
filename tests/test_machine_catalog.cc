/**
 * @file
 * Tests for the machine-preset catalog: built-in presets, aliases,
 * custom registration (programmatic and from key=value files), and
 * the unknown-name error path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

TEST(MachineCatalog, CascadePreset)
{
    const auto cfg = MachineCatalog::get("cascade-5218");
    EXPECT_EQ(cfg.name, "cascade-5218");
    EXPECT_EQ(cfg.cores, 32u);
    EXPECT_EQ(cfg.smtWays, 1u);
    EXPECT_EQ(cfg.hwThreads(), 32u);
    EXPECT_DOUBLE_EQ(cfg.baseFrequency, 2.8e9);
    EXPECT_EQ(cfg.l3Capacity, 44_MiB);
    EXPECT_EQ(cfg.memoryCapacity, 384_GiB);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(MachineCatalog, CascadeDualPreset)
{
    const auto folded = MachineCatalog::get("cascade-5218");
    const auto dual = MachineCatalog::get("cascade-5218-dual");
    EXPECT_EQ(dual.sockets, 2u);
    EXPECT_EQ(dual.coresPerSocket(), 16u);
    EXPECT_EQ(dual.l3Capacity, folded.l3Capacity / 2);
    EXPECT_DOUBLE_EQ(dual.memServiceRate, folded.memServiceRate / 2);
}

TEST(MachineCatalog, IceLakePreset)
{
    const auto cfg = MachineCatalog::get("icelake-4314");
    EXPECT_EQ(cfg.name, "icelake-4314");
    EXPECT_EQ(cfg.cores, 16u);
    EXPECT_DOUBLE_EQ(cfg.baseFrequency, 2.4e9);
    EXPECT_EQ(cfg.l3Capacity, 24_MiB);
    EXPECT_EQ(cfg.memoryCapacity, 128_GiB);
}

TEST(MachineCatalog, PresetsDiffer)
{
    const auto cl = MachineCatalog::get("cascade-5218");
    const auto il = MachineCatalog::get("icelake-4314");
    EXPECT_NE(cl.name, il.name);
    EXPECT_GT(cl.l3ServiceRate, il.l3ServiceRate);
    EXPECT_GT(cl.memServiceRate, il.memServiceRate);
}

TEST(MachineCatalog, AliasesResolveToCanonicalPresets)
{
    EXPECT_EQ(MachineCatalog::get("cascadelake").name,
              "cascade-5218");
    EXPECT_EQ(MachineCatalog::get("xeon-gold-5218").name,
              "cascade-5218");
    EXPECT_EQ(MachineCatalog::get("xeon-gold-5218-dual").name,
              "cascade-5218-dual");
    EXPECT_EQ(MachineCatalog::get("icelake").name, "icelake-4314");
    EXPECT_EQ(MachineCatalog::get("xeon-silver-4314").name,
              "icelake-4314");
}

TEST(MachineCatalog, HasAndNames)
{
    EXPECT_TRUE(MachineCatalog::has("cascade-5218"));
    EXPECT_TRUE(MachineCatalog::has("icelake"));
    EXPECT_FALSE(MachineCatalog::has("itanium-9000"));

    const auto names = MachineCatalog::names();
    EXPECT_GE(names.size(), 3u);
    // Canonical names only — aliases are lookup sugar.
    EXPECT_NE(std::find(names.begin(), names.end(), "cascade-5218"),
              names.end());
    EXPECT_EQ(std::find(names.begin(), names.end(), "cascadelake"),
              names.end());
}

TEST(MachineCatalog, UnknownNameListsCatalog)
{
    EXPECT_EXIT(MachineCatalog::get("itanium-9000"),
                ::testing::ExitedWithCode(1),
                "unknown machine 'itanium-9000'.*cascade-5218");
}

TEST(MachineCatalog, RegisterCustomPreset)
{
    MachineConfig cfg = MachineCatalog::get("cascade-5218");
    cfg.name = "catalog-test-64";
    cfg.cores = 64;
    MachineCatalog::registerPreset(cfg, {"ct64"});

    EXPECT_EQ(MachineCatalog::get("catalog-test-64").cores, 64u);
    EXPECT_EQ(MachineCatalog::get("ct64").cores, 64u);

    // Re-registering replaces (idempotent for test fixtures), and
    // aliases follow the replacement instead of serving stale copies.
    cfg.cores = 48;
    MachineCatalog::registerPreset(cfg);
    EXPECT_EQ(MachineCatalog::get("catalog-test-64").cores, 48u);
    EXPECT_EQ(MachineCatalog::get("ct64").cores, 48u);
}

TEST(MachineCatalog, RejectsNonTokenNames)
{
    // Names travel through fleet specs and profile records, so
    // whitespace and the spec separators are refused.
    MachineConfig cfg = MachineCatalog::get("cascade-5218");
    cfg.name = "big node";
    EXPECT_EXIT(MachineCatalog::registerPreset(cfg),
                ::testing::ExitedWithCode(1), "whitespace");
    cfg.name = "a:b";
    EXPECT_EXIT(MachineCatalog::registerPreset(cfg),
                ::testing::ExitedWithCode(1), "whitespace");
}

TEST(MachineCatalog, RegisterPresetRejectsInvalid)
{
    MachineConfig cfg = MachineCatalog::get("cascade-5218");
    cfg.name = "broken";
    cfg.cores = 0;
    EXPECT_EXIT(MachineCatalog::registerPreset(cfg),
                ::testing::ExitedWithCode(1), "cores");
    cfg = MachineCatalog::get("cascade-5218");
    cfg.name.clear();
    EXPECT_EXIT(MachineCatalog::registerPreset(cfg),
                ::testing::ExitedWithCode(1), "no name");
}

TEST(MachineCatalog, RegisterFromFile)
{
    const std::string path = "/tmp/litmus_test_preset.conf";
    {
        std::ofstream out(path);
        out << "# a trimmed Ice Lake for the edge\n"
            << "base = icelake-4314\n"
            << "name = edge-4314\n"
            << "cores = 8\n"
            << "memory_capacity_gib = 64\n";
    }
    const MachineConfig cfg = MachineCatalog::registerFromFile(path);
    EXPECT_EQ(cfg.name, "edge-4314");
    EXPECT_EQ(cfg.cores, 8u);
    EXPECT_EQ(cfg.memoryCapacity, 64_GiB);
    // The base preset's other fields carried over.
    EXPECT_DOUBLE_EQ(cfg.baseFrequency, 2.4e9);
    EXPECT_EQ(MachineCatalog::get("edge-4314").cores, 8u);
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileRequiresName)
{
    const std::string path = "/tmp/litmus_test_preset_noname.conf";
    {
        std::ofstream out(path);
        out << "cores = 8\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1), "must set name");
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileRejectsUnknownBase)
{
    const std::string path = "/tmp/litmus_test_preset_badbase.conf";
    {
        std::ofstream out(path);
        out << "base = vax-11\nname = whatever\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1), "unknown machine");
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileNamesTheBaseLine)
{
    // An unknown base dies at its own line, not later in a lookup that
    // has lost the file.
    const std::string path = "/tmp/litmus_test_preset_badbase_line.conf";
    {
        std::ofstream out(path);
        out << "name = whatever\n# inherits\nbase = vax-11\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1),
                "fatal: /tmp/litmus_test_preset_badbase_line\\.conf:3: "
                "MachineCatalog: unknown machine 'vax-11' \\(catalog: "
                "cascade-5218");
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileRejectsWrapsAndBadSizes)
{
    // Each bad value dies at registration, before any engine exists,
    // and the diagnostic points at the preset file's line.
    const std::string path = "/tmp/litmus_test_preset_range.conf";
    const auto rejects = [&](const std::string &line,
                             const std::string &why) {
        {
            std::ofstream out(path);
            out << "name = ranged\n" << line << "\n";
        }
        EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                    ::testing::ExitedWithCode(1),
                    "litmus_test_preset_range\\.conf:2: machine key .*" +
                        why)
            << line;
    };
    // -4 would cast to 4294967292 cores and pass validate().
    rejects("cores = -4", "must be >= 0, got -4");
    // 2^32 + 1 would cast to 1 core.
    rejects("cores = 4294967297", "must be <= 4294967295");
    rejects("smt_ways = -1", "must be >= 0");
    rejects("cores = eight", "expects an integer");
    // A negative or 2^64-byte size would be an undefined cast.
    rejects("l3_capacity_mib = -1", "must be a size in \\[0, 2\\^64\\)");
    rejects("memory_capacity_gib = -0.5", "must be a size");
    rejects("memory_capacity_gib = 1e12", "must be a size");
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileRefusesDuplicateKeys)
{
    const std::string path = "/tmp/litmus_test_preset_dup.conf";
    {
        std::ofstream out(path);
        out << "name = twice\ncores = 8\ncores = 16\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1),
                "litmus_test_preset_dup\\.conf:3: duplicate key 'cores' "
                "\\(first on line 2\\)");
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileNamesItInRangeErrors)
{
    // Each key parses, but the assembled preset fails a range check.
    const std::string path = "/tmp/litmus_test_preset_validate.conf";
    {
        std::ofstream out(path);
        out << "name = unsaturated\ncoupling_saturation_mpki = 0\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1),
                "fatal: /tmp/litmus_test_preset_validate\\.conf: "
                "MachineConfig: couplingSaturationMpki must be positive, "
                "got 0");
    std::remove(path.c_str());
}

TEST(MachineCatalog, RegisterFromFileLocatesParseErrors)
{
    const std::string path = "/tmp/litmus_test_preset_where.conf";
    {
        std::ofstream out(path);
        out << "name = located\nbase_ghz = fast\ncoresss = 2\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1),
                "litmus_test_preset_where\\.conf:2: 'base_ghz' expects a "
                "finite number");
    {
        std::ofstream out(path);
        out << "name = located\ncoresss = 2\n";
    }
    EXPECT_EXIT(MachineCatalog::registerFromFile(path),
                ::testing::ExitedWithCode(1),
                "litmus_test_preset_where\\.conf:2: machine key 'coresss': "
                "unknown key");
    std::remove(path.c_str());
}

} // namespace
} // namespace litmus::sim
