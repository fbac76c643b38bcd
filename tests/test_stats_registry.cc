/**
 * @file
 * Tests for the statistics registry.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>

#include "common/rng.h"
#include "common/stats_registry.h"
#include "sim/engine.h"
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

/** Bits of every moment of @p got equal those of @p want. */
::testing::AssertionResult
sameBits(const OnlineStats &got, const OnlineStats &want)
{
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    if (got.count() != want.count())
        return ::testing::AssertionFailure()
               << "count " << got.count() << " vs " << want.count();
    const double pairs[][2] = {{got.sum(), want.sum()},
                               {got.mean(), want.mean()},
                               {got.variance(), want.variance()},
                               {got.min(), want.min()},
                               {got.max(), want.max()}};
    const char *names[] = {"sum", "mean", "variance", "min", "max"};
    for (std::size_t i = 0; i < std::size(pairs); ++i) {
        if (bits(pairs[i][0]) != bits(pairs[i][1]))
            return ::testing::AssertionFailure()
                   << names[i] << " " << pairs[i][0] << " vs "
                   << pairs[i][1];
    }
    return ::testing::AssertionSuccess();
}

TEST(AverageStat, RunsFoldBitExactly)
{
    // Runs of one value, changes, k == 0, signed zeros, NaN, a reset
    // mid-run and reads mid-run, against a plain add() loop.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double pool[] = {1.5, 2.0, 0.0, -0.0, nan, 0.1, -3.25, 1e300,
                           7.0 / 3.0};
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        AverageStat stat("s", "under test");
        OnlineStats want;
        Rng rng(seed);
        double v = pool[0];
        for (int op = 0; op < 400; ++op) {
            if (rng.chance(0.3))
                v = pool[rng.below(std::size(pool))];
            const std::uint64_t kind = rng.below(10);
            if (kind < 4) {
                stat.sample(v);
                want.add(v);
            } else if (kind < 8) {
                const std::size_t ks[] = {0, 1, 2, 7, 1000};
                const std::size_t k = ks[rng.below(std::size(ks))];
                stat.sampleRepeated(v, k);
                for (std::size_t i = 0; i < k; ++i)
                    want.add(v);
            } else if (kind == 8) {
                ASSERT_TRUE(sameBits(stat.accumulator(), want))
                    << "op " << op;
                std::ostringstream count;
                count << "n=" << want.count() << ")";
                EXPECT_NE(stat.render().find(count.str()),
                          std::string::npos);
            } else if (rng.chance(0.2)) {
                stat.reset();
                want.reset();
            }
        }
        ASSERT_TRUE(sameBits(stat.accumulator(), want));
    }
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

    sim::Phase phase;
    phase.name = "p";
    phase.instructions = 5e6;
    phase.demand.cpi0 = 1.0;
    phase.demand.l2Mpki = 5.0;
    phase.demand.l3WorkingSet = 1_MiB;
    phase.demand.l3MissBase = 0.2;
    phase.demand.mlp = 4.0;
    engine.runToCompletion(
        std::make_unique<sim::Task>("t", std::vector<sim::Phase>{phase}));

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
