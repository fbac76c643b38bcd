/**
 * @file
 * Tests for the statistics registry.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/stats_registry.h"
#include "sim/engine.h"
#include "workload/program.h"
#include "sim/machine_catalog.h"

namespace litmus
{
namespace
{

TEST(CounterStat, Accumulates)
{
    CounterStat c("hits", "hit count");
    c.add();
    c.add(2.5);
    EXPECT_DOUBLE_EQ(c.value(), 3.5);
    c.reset();
    EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(AverageStat, TracksMoments)
{
    AverageStat a("lat", "latency");
    a.sample(1.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.accumulator().mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.accumulator().min(), 1.0);
    EXPECT_DOUBLE_EQ(a.accumulator().max(), 3.0);
    EXPECT_NE(a.render().find("n=2"), std::string::npos);
}

TEST(HistogramStat, BucketsAndEdges)
{
    HistogramStat h("dist", "distribution", 0.0, 10.0, 5);
    h.sample(-1.0); // underflow
    h.sample(0.0);  // bucket 0
    h.sample(1.9);  // bucket 0
    h.sample(5.0);  // bucket 2
    h.sample(9.99); // bucket 4
    h.sample(10.0); // overflow
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.total(), 6u);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
}

TEST(HistogramStat, RejectsBadRange)
{
    EXPECT_EXIT(HistogramStat("h", "x", 5.0, 5.0, 4),
                ::testing::ExitedWithCode(1), "hi must exceed");
    EXPECT_EXIT(HistogramStat("h", "x", 0.0, 1.0, 0),
                ::testing::ExitedWithCode(1), "buckets");
}

TEST(StatsRegistry, DumpGroupsEntries)
{
    CounterStat a("a", "first"), b("b", "second");
    StatsRegistry registry;
    registry.add("grp", a);
    registry.add("grp", b);
    a.add(7);
    std::ostringstream os;
    registry.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("grp:"), std::string::npos);
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(StatsRegistry, DuplicateFatal)
{
    CounterStat a("a", "x"), dup("a", "y");
    StatsRegistry registry;
    registry.add("grp", a);
    EXPECT_EXIT(registry.add("grp", dup),
                ::testing::ExitedWithCode(1), "duplicate");
}

TEST(EngineStats, PopulatedByRuns)
{
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    cfg.cores = 4;
    sim::Engine engine(cfg);
    StatsRegistry registry;
    engine.stats().registerWith(registry, "engine");

    workload::Phase phase;
    phase.name = "p";
    phase.instructions = 5e6;
    phase.demand.cpi0 = 1.0;
    phase.demand.l2Mpki = 5.0;
    phase.demand.l3WorkingSet = 1_MiB;
    phase.demand.l3MissBase = 0.2;
    phase.demand.mlp = 4.0;
    sim::Task &task = engine.add(std::make_unique<workload::ProgramTask>(
        "t", workload::PhaseProgram({phase})));
    engine.runUntilComplete(task);

    EXPECT_GT(engine.stats().quanta.value(), 0.0);
    EXPECT_DOUBLE_EQ(engine.stats().completions.value(), 1.0);
    EXPECT_NEAR(engine.stats().instructions.value(), 5e6, 1e3);
    EXPECT_GT(engine.stats().frequencyGhz.accumulator().mean(), 1.0);
    // 7 simulation stats + 5 fast-forward diagnostics.
    EXPECT_EQ(registry.size(), 12u);
    EXPECT_GT(engine.stats().solves.value(), 0.0);
}

} // namespace
} // namespace litmus
