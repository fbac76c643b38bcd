/**
 * @file
 * Cross-module property sweeps: pricing and simulation invariants
 * that must hold across seeds, population sizes, machines, and probe
 * windows. These are the "no matter how you configure it" guarantees
 * a provider relies on.
 */

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/experiment.h"
#include "sim/machine_catalog.h"

namespace litmus::pricing
{
namespace
{

/** One shared small calibration (slow part) reused by every sweep. */
const DiscountModel &
sharedModel()
{
    static const DiscountModel model = [] {
        CalibrationConfig cfg;
        cfg.levels = {4, 10, 16, 22};
        cfg.referencePool = {&workload::functionByName("thum-py"),
                             &workload::functionByName("bfs-py"),
                             &workload::functionByName("cur-nj"),
                             &workload::functionByName("aes-go")};
        cfg.warmup = 0.03;
        const CalibrationProfile result = calibrate(cfg);
        return DiscountModel(result);
    }();
    return model;
}

/** Pricing invariants must hold for any seed. */
class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, PricingInvariants)
{
    ExperimentConfig cfg;
    cfg.coRunners = 8;
    cfg.layoutOnePerCore();
    cfg.subjects = {&workload::functionByName("aes-py"),
                    &workload::functionByName("geo-go")};
    cfg.repetitions = 2;
    cfg.warmup = 0.05;
    cfg.seed = GetParam();
    const auto result = runPricingExperiment(cfg, sharedModel());

    for (const auto &row : result.rows) {
        // Discounts, never surcharges; and never free.
        EXPECT_LE(row.litmusPrice, 1.0 + 1e-9) << row.name;
        EXPECT_GT(row.litmusPrice, 0.3) << row.name;
        EXPECT_LE(row.idealPrice, 1.0 + 1e-9) << row.name;
        EXPECT_GT(row.idealPrice, 0.3) << row.name;
        // Predictions are slowdowns.
        EXPECT_GE(row.predictedPriv, 1.0) << row.name;
        EXPECT_GE(row.predictedShared, 1.0) << row.name;
        // Error decomposition holds.
        EXPECT_NEAR(row.privError + row.sharedError, row.totalError,
                    1e-9)
            << row.name;
        // Litmus stays within 10% of ideal per function.
        EXPECT_NEAR(row.litmusPrice, row.idealPrice, 0.10) << row.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           0xfeedull));

/** More co-runners never means a smaller ideal discount (monotone
 *  congestion), within a small tolerance for churn randomness. */
class PopulationSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PopulationSweep, CongestionGrowsWithPopulation)
{
    const unsigned n = GetParam();
    auto run = [&](unsigned count) {
        ExperimentConfig cfg;
        cfg.coRunners = count;
        cfg.layoutOnePerCore();
        cfg.subjects = {&workload::functionByName("pager-py")};
        cfg.repetitions = 2;
        cfg.warmup = 0.05;
        return runSlowdownExperiment(cfg).gmeanTotalSlowdown;
    };
    EXPECT_GE(run(n + 8), run(n) - 0.02) << "population " << n;
}

INSTANTIATE_TEST_SUITE_P(Counts, PopulationSweep,
                         ::testing::Values(2u, 8u, 14u, 20u));

/** Probe windows: any length inside the startup produces a usable,
 *  bounded estimate. */
class WindowSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(WindowSweep, EstimatesStayBounded)
{
    ExperimentConfig cfg;
    cfg.coRunners = 8;
    cfg.layoutOnePerCore();
    cfg.subjects = {&workload::functionByName("auth-go"),
                    &workload::functionByName("chame-py")};
    cfg.repetitions = 1;
    cfg.warmup = 0.05;
    cfg.probeWindowOverride = GetParam();
    const auto result = runPricingExperiment(cfg, sharedModel());
    for (const auto &row : result.rows) {
        EXPECT_GT(row.litmusPrice, 0.5) << row.name;
        EXPECT_LE(row.litmusPrice, 1.0 + 1e-9) << row.name;
    }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweep,
                         ::testing::Values(3e6, 8e6, 20e6, 45e6, 80e6));

/** The Ice Lake preset supports the whole pipeline too. */
TEST(MachineSweep, IceLakePipeline)
{
    CalibrationConfig ccfg;
    ccfg.machine = sim::MachineCatalog::get("icelake-4314");
    ccfg.levels = {4, 8, 12};
    ccfg.referencePool = {&workload::functionByName("gzip-py"),
                          &workload::functionByName("profile-go")};
    ccfg.warmup = 0.03;
    const CalibrationProfile cal = calibrate(ccfg);
    const DiscountModel model(cal);

    ExperimentConfig cfg;
    cfg.machine = ccfg.machine;
    cfg.coRunners = 10;
    cfg.layoutOnePerCore();
    cfg.subjects = {&workload::functionByName("rate-go")};
    cfg.repetitions = 2;
    cfg.warmup = 0.05;
    const auto result = runPricingExperiment(cfg, model);
    EXPECT_GT(result.litmusDiscount(), 0.0);
    EXPECT_NEAR(result.litmusDiscount(), result.idealDiscount(), 0.05);
}

/** Memory admission: a tiny machine defers launches instead of
 *  overcommitting. */
TEST(MemoryAdmission, DefersWhenFull)
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    machine.memoryCapacity = 2_GiB; // room for only a few functions

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::Pooled;
    icfg.targetCount = 30;
    icfg.cpuPool = {0, 1, 2, 3};
    icfg.functionPool = {&workload::functionByName("recogn-py")}; // 1 GiB
    workload::Invoker invoker(engine, icfg);
    invoker.start();

    EXPECT_LE(invoker.committedMemory(), machine.memoryCapacity);
    EXPECT_LE(invoker.liveCount(), 2u);
    EXPECT_GT(invoker.deferredCount(), 0u);
}

TEST(MemoryAdmission, DisabledAllowsOvercommit)
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    machine.memoryCapacity = 2_GiB;

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::Pooled;
    icfg.targetCount = 10;
    icfg.cpuPool = {0, 1};
    icfg.functionPool = {&workload::functionByName("recogn-py")};
    icfg.enforceMemoryCapacity = false;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    EXPECT_EQ(invoker.liveCount(), 10u);
    EXPECT_GT(invoker.committedMemory(), machine.memoryCapacity);
}

TEST(MemoryAdmission, BackfillsSmallerFunctions)
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    machine.memoryCapacity = 3_GiB;

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::Pooled;
    icfg.targetCount = 16;
    icfg.cpuPool = {0, 1, 2, 3};
    // Mixed pool: 1 GiB recogn-py and 128 MiB fib-py; the placer
    // should keep admitting small functions once the big ones fill
    // memory.
    icfg.functionPool = {&workload::functionByName("recogn-py"),
                         &workload::functionByName("fib-py")};
    icfg.seed = 5;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    EXPECT_LE(invoker.committedMemory(), machine.memoryCapacity);
    EXPECT_GE(invoker.liveCount(), 8u);
}

} // namespace
} // namespace litmus::pricing
