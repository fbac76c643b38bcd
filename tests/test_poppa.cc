/**
 * @file
 * Tests for the POPPA sampling baseline.
 */

#include <gtest/gtest.h>

#include "core/poppa.h"
#include "sim/machine_catalog.h"

namespace litmus::pricing
{
namespace
{

sim::MachineConfig
machine(unsigned cores = 4)
{
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    cfg.cores = cores;
    return cfg;
}

std::unique_ptr<sim::Task>
hog(const std::string &name)
{
    sim::ResourceDemand d;
    d.cpi0 = 0.6;
    d.l2Mpki = 30.0;
    d.l3WorkingSet = 16_MiB;
    d.l3MissBase = 0.8;
    d.mlp = 8.0;
    return std::make_unique<sim::Task>(name, d);
}

TEST(Poppa, RejectsBadConfig)
{
    sim::Engine engine(machine());
    PoppaConfig bad;
    bad.sampleWindow = bad.samplePeriod * 2;
    EXPECT_EXIT(PoppaSampler(engine, bad), ::testing::ExitedWithCode(1),
                "window");
}

TEST(Poppa, CollectsSamplesAndOverhead)
{
    sim::Engine engine(machine());
    PoppaConfig cfg;
    cfg.samplePeriod = 10e-3;
    cfg.sampleWindow = 2e-3;
    PoppaSampler sampler(engine, cfg);

    const auto &a = engine.add(hog("a"));
    const auto &b = engine.add(hog("b"));
    engine.run(0.2);

    EXPECT_GT(sampler.windowsOpened(), 5u);
    EXPECT_GT(sampler.sampleCount(a.id()) + sampler.sampleCount(b.id()),
              5u);
    // Each window stalls one co-runner for its whole length.
    EXPECT_NEAR(sampler.stallOverhead(),
                static_cast<double>(sampler.windowsOpened()) * 2e-3,
                4e-3);
}

TEST(Poppa, EstimatesSoloCpiUnderInterference)
{
    // Solo CPI of the victim demand on an idle machine.
    const auto cfg = machine();
    sim::Engine soloEngine(cfg);
    const auto &soloTask = soloEngine.add(hog("solo"));
    soloEngine.run(0.05);
    const double soloCpi = soloTask.counters().cycles /
                           soloTask.counters().instructions;

    // Crowded machine with a sampler.
    sim::Engine engine(cfg);
    PoppaConfig pcfg;
    pcfg.samplePeriod = 8e-3;
    pcfg.sampleWindow = 2e-3;
    PoppaSampler sampler(engine, pcfg);
    const auto &victim = engine.add(hog("victim"));
    for (int i = 0; i < 3; ++i)
        engine.add(hog("co" + std::to_string(i)));
    engine.run(0.4);

    const double crowdedCpi = victim.counters().cycles /
                              victim.counters().instructions;
    const double estimate = sampler.estimatedSoloCpi(victim.id());
    ASSERT_GT(sampler.sampleCount(victim.id()), 2u);
    // The sampled estimate must sit near the true solo CPI, clearly
    // below the crowded CPI.
    EXPECT_GT(crowdedCpi, soloCpi * 1.03);
    EXPECT_NEAR(estimate, soloCpi, soloCpi * 0.15);
}

TEST(Poppa, PriceFallsBackToCommercial)
{
    sim::Engine engine(machine());
    PoppaSampler sampler(engine, PoppaConfig{});
    sim::TaskCounters c;
    c.instructions = 1e6;
    c.cycles = 2e6;
    // Task id 999 never sampled: price == commercial cycles.
    EXPECT_DOUBLE_EQ(sampler.price(c, 999), 2e6);
}

TEST(Poppa, PriceDiscountsWhenSampled)
{
    sim::Engine engine(machine());
    PoppaConfig cfg;
    cfg.samplePeriod = 8e-3;
    cfg.sampleWindow = 2e-3;
    PoppaSampler sampler(engine, cfg);
    const auto &victim = engine.add(hog("victim"));
    for (int i = 0; i < 3; ++i)
        engine.add(hog("co" + std::to_string(i)));
    engine.run(0.3);
    ASSERT_GT(sampler.sampleCount(victim.id()), 0u);
    const double price =
        sampler.price(victim.counters(), victim.id());
    EXPECT_LT(price, victim.counters().cycles);
    EXPECT_GT(price, 0.0);
}

TEST(Poppa, NoSamplingWithSingleTask)
{
    sim::Engine engine(machine());
    PoppaConfig cfg;
    cfg.samplePeriod = 5e-3;
    cfg.sampleWindow = 1e-3;
    PoppaSampler sampler(engine, cfg);
    engine.add(hog("only"));
    engine.run(0.1);
    EXPECT_EQ(sampler.windowsOpened(), 0u);
    EXPECT_DOUBLE_EQ(sampler.stallOverhead(), 0.0);
}

} // namespace
} // namespace litmus::pricing
