/**
 * @file
 * Tests for CT-Gen and MB-Gen: per-thread demands, pinning, and the
 * Figure 1 signatures.
 */

#include <gtest/gtest.h>

#include "workload/traffic_gen.h"
#include "sim/machine_catalog.h"

namespace litmus::workload
{
namespace
{

TEST(TrafficGen, Names)
{
    EXPECT_EQ(nameOf(kGeneratorNames, GeneratorKind::CtGen), "CT-Gen");
    EXPECT_EQ(nameOf(kGeneratorNames, GeneratorKind::MbGen), "MB-Gen");
}

TEST(TrafficGen, CtThreadMostlyHitsL3)
{
    const auto d = generatorThreadDemand(GeneratorKind::CtGen);
    EXPECT_LT(d.l3MissBase, 0.1);
    EXPECT_GT(d.l2Mpki, 30.0);
    EXPECT_LT(d.l3WorkingSet, 2_MiB);
}

TEST(TrafficGen, MbThreadStreamsThroughMemory)
{
    const auto d = generatorThreadDemand(GeneratorKind::MbGen);
    EXPECT_GT(d.l3MissBase, 0.8);
    EXPECT_GT(d.l3WorkingSet, 4_MiB);
    // Figure 1: MB-Gen issues fewer L2 misses than CT-Gen.
    EXPECT_LT(d.l2Mpki, generatorThreadDemand(GeneratorKind::CtGen).l2Mpki);
}

TEST(TrafficGen, SpawnPinsOnePerCpu)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    const auto handles =
        spawnGenerator(engine, GeneratorKind::CtGen, 5, 3);
    ASSERT_EQ(handles.size(), 5u);
    for (unsigned i = 0; i < 5; ++i) {
        ASSERT_EQ(handles[i]->affinity().size(), 1u);
        EXPECT_EQ(handles[i]->affinity()[0], 3 + i);
        EXPECT_EQ(engine.scheduler().runningOn(3 + i), handles[i]);
    }
}

TEST(TrafficGen, SpawnRejectsOverflow)
{
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    cfg.cores = 4;
    sim::Engine engine(cfg);
    EXPECT_EXIT(spawnGenerator(engine, GeneratorKind::CtGen, 4, 1),
                ::testing::ExitedWithCode(1), "exceeds");
}

/**
 * Figure 1 signature test: machine-wide L3 misses are far higher
 * under MB-Gen than CT-Gen at the same level, and CT-Gen's L2-miss
 * traffic grows with its thread count.
 */
TEST(TrafficGen, Figure1Signatures)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");

    auto measure = [&](GeneratorKind kind, unsigned level) {
        sim::Engine engine(cfg);
        spawnGenerator(engine, kind, level, 0);
        engine.run(0.02);
        return engine.machineCounters();
    };

    const auto ct8 = measure(GeneratorKind::CtGen, 8);
    const auto mb8 = measure(GeneratorKind::MbGen, 8);

    // MB misses the L3 orders of magnitude more than CT.
    EXPECT_GT(mb8.l3Misses, 10 * ct8.l3Misses);
    // CT produces more L2-miss traffic (L3 accesses) than MB, which is
    // self-throttled on DRAM.
    EXPECT_GT(ct8.l3Accesses, mb8.l3Accesses);

    // Traffic grows with level for both generators.
    const auto ct2 = measure(GeneratorKind::CtGen, 2);
    const auto mb2 = measure(GeneratorKind::MbGen, 2);
    EXPECT_GT(ct8.l3Accesses, 2 * ct2.l3Accesses);
    EXPECT_GT(mb8.l3Misses, 2 * mb2.l3Misses);
}

TEST(TrafficGen, LevelsProduceIncreasingCongestion)
{
    // A fixed probe-like subject slows down monotonically (within
    // tolerance) as the MB-Gen level rises.
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::ResourceDemand probeDemand;
    probeDemand.cpi0 = 0.6;
    probeDemand.l2Mpki = 15.0;
    probeDemand.l3WorkingSet = 3_MiB;
    probeDemand.l3MissBase = 0.3;
    probeDemand.mlp = 8.0;

    double prevCpi = 0.0;
    for (unsigned level : {2u, 10u, 20u, 30u}) {
        sim::Engine engine(cfg);
        spawnGenerator(engine, GeneratorKind::MbGen, level, 1);
        engine.run(0.01); // warm
        sim::Phase phase;
        phase.name = "probe";
        phase.instructions = 20e6;
        phase.demand = probeDemand;
        auto task = std::make_unique<sim::Task>(
            "probe", std::vector<sim::Phase>{phase});
        task->setAffinity({0});
        const sim::TaskCounters counters =
            engine.runToCompletion(std::move(task))->counters();
        const double cpi = counters.cycles / counters.instructions;
        EXPECT_GT(cpi, prevCpi * 0.999) << "level " << level;
        prevCpi = cpi;
    }
}

} // namespace
} // namespace litmus::workload
