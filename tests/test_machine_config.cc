/**
 * @file
 * Tests for the machine presets and their validation.
 */

#include <gtest/gtest.h>

#include <limits>

#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

TEST(MachineConfig, CascadeLakePreset)
{
    const auto cfg = MachineCatalog::get("cascade-5218");
    EXPECT_EQ(cfg.cores, 32u);
    EXPECT_EQ(cfg.smtWays, 1u);
    EXPECT_EQ(cfg.hwThreads(), 32u);
    EXPECT_DOUBLE_EQ(cfg.baseFrequency, 2.8e9);
    EXPECT_EQ(cfg.l3Capacity, 44_MiB);
    EXPECT_EQ(cfg.memoryCapacity, 384_GiB);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(MachineConfig, IceLakePreset)
{
    const auto cfg = MachineCatalog::get("icelake-4314");
    EXPECT_EQ(cfg.cores, 16u);
    EXPECT_DOUBLE_EQ(cfg.baseFrequency, 2.4e9);
    EXPECT_EQ(cfg.l3Capacity, 24_MiB);
    EXPECT_EQ(cfg.memoryCapacity, 128_GiB);
}

TEST(MachineConfig, PresetsDiffer)
{
    const auto cl = MachineCatalog::get("cascade-5218");
    const auto il = MachineCatalog::get("icelake-4314");
    EXPECT_NE(cl.name, il.name);
    EXPECT_GT(cl.l3ServiceRate, il.l3ServiceRate);
    EXPECT_GT(cl.memServiceRate, il.memServiceRate);
}

TEST(MachineConfig, SmtDoublesHwThreads)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.smtWays = 2;
    EXPECT_EQ(cfg.hwThreads(), 64u);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(MachineConfig, RejectsZeroCores)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.cores = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "cores");
}

TEST(MachineConfig, RejectsBadSmt)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.smtWays = 3;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "smtWays");
}

TEST(MachineConfig, RejectsInvertedLatencies)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.memLatencyNs = cfg.l3HitLatencyNs / 2;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "latencies");
}

TEST(MachineConfig, RejectsBadTurbo)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.turboFrequency = cfg.baseFrequency / 2;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "frequency");
}

TEST(MachineConfig, RejectsBadQueueModel)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.l3QueueMax = 0.5;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "queue");
}

TEST(MachineConfig, RejectsNegativeWarmth)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.warmthMaxPenalty = -0.1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "warmth");
}

TEST(MachineConfig, RejectsZeroTimeSlice)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.timeSlice = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "timeSlice");
}

TEST(MachineConfig, RejectsNonFiniteTimeSlice)
{
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -1e-3}) {
        auto cfg = MachineCatalog::get("cascade-5218");
        cfg.timeSlice = bad;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "timeSlice")
            << bad;
    }
}

TEST(MachineConfig, RejectsNonFiniteQuantum)
{
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             0.0}) {
        auto cfg = MachineCatalog::get("cascade-5218");
        cfg.quantum = bad;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "quantum")
            << bad;
    }
}

TEST(MachineConfig, RejectsNonPositiveCouplingSaturation)
{
    // A zero saturation sends every thread's intensity to inf (NaN at
    // zero mpki), which the solver's min(1, .) turns into full
    // coupling for compute-bound code.
    for (const double bad : {0.0, -2.5,
                             std::numeric_limits<double>::quiet_NaN()}) {
        auto cfg = MachineCatalog::get("cascade-5218");
        cfg.couplingSaturationMpki = bad;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "couplingSaturationMpki")
            << bad;
    }
}

TEST(MachineConfig, RejectsNegativeContextSwitchCycles)
{
    for (const double bad : {-6000.0,
                             std::numeric_limits<double>::quiet_NaN()}) {
        auto cfg = MachineCatalog::get("cascade-5218");
        cfg.contextSwitchCycles = bad;
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "contextSwitchCycles")
            << bad;
    }
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.contextSwitchCycles = 0;
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(MachineConfig, RejectsNaNParameters)
{
    // Every range check is written so that NaN fails it too.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Case
    {
        const char *what;
        void (*set)(MachineConfig &, double);
    };
    const Case cases[] = {
        {"frequency",
         [](MachineConfig &c, double v) { c.baseFrequency = v; }},
        {"frequency",
         [](MachineConfig &c, double v) { c.turboFrequency = v; }},
        {"latencies",
         [](MachineConfig &c, double v) { c.l3HitLatencyNs = v; }},
        {"latencies",
         [](MachineConfig &c, double v) { c.memLatencyNs = v; }},
        {"service rates",
         [](MachineConfig &c, double v) { c.l3ServiceRate = v; }},
        {"service rates",
         [](MachineConfig &c, double v) { c.memServiceRate = v; }},
        {"queue", [](MachineConfig &c, double v) { c.l3QueueMax = v; }},
        {"queue", [](MachineConfig &c, double v) { c.memQueueMax = v; }},
        {"queue", [](MachineConfig &c, double v) { c.queueGamma = v; }},
        {"capacityMissExponent",
         [](MachineConfig &c, double v) { c.capacityMissExponent = v; }},
        {"residencyFactor",
         [](MachineConfig &c, double v) { c.residencyFactor = v; }},
        {"coupling",
         [](MachineConfig &c, double v) { c.privateCouplingL3 = v; }},
        {"coupling",
         [](MachineConfig &c, double v) { c.privateCouplingMem = v; }},
        {"coupling",
         [](MachineConfig &c, double v) { c.privateCouplingMax = v; }},
        {"smtCpiMultiplier",
         [](MachineConfig &c, double v) { c.smtCpiMultiplier = v; }},
        {"warmth",
         [](MachineConfig &c, double v) { c.warmthMaxPenalty = v; }},
        {"warmth", [](MachineConfig &c, double v) { c.warmthRate = v; }},
    };
    for (const Case &c : cases) {
        auto cfg = MachineCatalog::get("cascade-5218");
        c.set(cfg, nan);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), c.what)
            << c.what;
    }
}

} // namespace
} // namespace litmus::sim
