/**
 * @file
 * Tests for the invoker's population maintenance and placement modes,
 * and for its own completion subscription.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "workload/invoker.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

namespace litmus::workload
{
namespace
{

sim::MachineConfig
machine()
{
    return sim::MachineCatalog::get("cascade-5218");
}

TEST(Invoker, LaunchesInitialPopulation)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.targetCount = 6;
    cfg.cpuPool = {1, 2, 3, 4, 5, 6};
    Invoker invoker(engine, cfg);
    invoker.start();
    EXPECT_EQ(invoker.liveCount(), 6u);
    EXPECT_EQ(engine.taskCount(), 6u);
    EXPECT_EQ(invoker.launchedCount(), 6u);
}

TEST(Invoker, OnePerCorePinsDistinctCpus)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.placement = InvokerConfig::Placement::OnePerCore;
    cfg.targetCount = 4;
    cfg.cpuPool = {2, 3, 4, 5};
    Invoker invoker(engine, cfg);
    invoker.start();
    for (unsigned cpu : {2u, 3u, 4u, 5u})
        EXPECT_NE(engine.scheduler().runningOn(cpu), nullptr);
    EXPECT_EQ(engine.scheduler().runningOn(0), nullptr);
}

TEST(Invoker, PooledSharesCpus)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.placement = InvokerConfig::Placement::Pooled;
    cfg.targetCount = 10;
    cfg.cpuPool = {0, 1};
    Invoker invoker(engine, cfg);
    invoker.start();
    EXPECT_EQ(engine.scheduler().queueLength(0) +
                  engine.scheduler().queueLength(1),
              10u);
}

TEST(Invoker, MaintainsPopulationUnderChurn)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.targetCount = 8;
    cfg.cpuPool = {0, 1, 2, 3, 4, 5, 6, 7};
    cfg.seed = 3;
    Invoker invoker(engine, cfg);
    invoker.start();
    engine.run(0.5);
    EXPECT_EQ(invoker.liveCount(), 8u);
    EXPECT_EQ(engine.taskCount(), 8u);
    // Functions are ~100 ms: after 0.5 s several finished and were
    // replaced.
    EXPECT_GT(invoker.launchedCount(), 12u);
}

/** A short task no invoker launched. */
std::unique_ptr<sim::Task>
foreignTask()
{
    sim::Phase phase;
    phase.name = "foreign";
    phase.instructions = 1e6;
    phase.demand.cpi0 = 1.0;
    return std::make_unique<sim::Task>("foreign",
                                       std::vector<sim::Phase>{phase});
}

TEST(Invoker, OwnershipTracking)
{
    // The invoker relaunches its own co-runners with no routing by the
    // caller, and a foreign task's completion launches nothing.
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.targetCount = 2;
    cfg.cpuPool = {0, 1};
    cfg.functionPool = {&functionByName("float-py")};
    Invoker invoker(engine, cfg);
    invoker.start();
    ASSERT_EQ(invoker.launchedCount(), 2u);

    auto foreign = foreignTask();
    foreign->setAffinity({2});
    engine.runToCompletion(std::move(foreign));
    EXPECT_EQ(invoker.launchedCount(), 2u);
    EXPECT_EQ(engine.taskCount(), 2u);

    engine.run(0.5); // float-py runs well under 0.5 s
    EXPECT_GT(invoker.launchedCount(), 2u);
    EXPECT_EQ(invoker.liveCount(), 2u);
    EXPECT_EQ(engine.taskCount(), 2u);
}

TEST(Invoker, TwoInvokersRelaunchOnlyTheirOwn)
{
    // Two populations on one engine, as in Figure 7's light background
    // and heavy wave: each replaces only what it launched, on its own
    // cores.
    sim::Engine engine(machine());
    InvokerConfig lightCfg;
    lightCfg.targetCount = 2;
    lightCfg.cpuPool = {0, 1};
    lightCfg.functionPool = {&functionByName("fib-go")};
    lightCfg.seed = 5;
    Invoker light(engine, lightCfg);

    InvokerConfig heavyCfg;
    heavyCfg.targetCount = 3;
    heavyCfg.cpuPool = {4, 5, 6};
    heavyCfg.functionPool = {&functionByName("pager-py")};
    heavyCfg.seed = 6;
    Invoker heavy(engine, heavyCfg);

    light.start();
    engine.run(0.3);
    const std::uint64_t lightBefore = light.launchedCount();
    EXPECT_GT(lightBefore, 2u);
    EXPECT_EQ(heavy.launchedCount(), 0u); // not started: owns nothing
    EXPECT_EQ(engine.taskCount(), 2u);

    heavy.start();
    engine.run(0.6);
    EXPECT_GT(heavy.launchedCount(), 3u);
    EXPECT_GT(light.launchedCount(), lightBefore);
    EXPECT_EQ(light.liveCount(), 2u);
    EXPECT_EQ(heavy.liveCount(), 3u);
    EXPECT_EQ(engine.taskCount(), 5u);
    const auto runsOn = [&](unsigned cpu) {
        const sim::Task *task = engine.scheduler().runningOn(cpu);
        return task ? task->name() : std::string("idle");
    };
    for (unsigned cpu : {0u, 1u})
        EXPECT_EQ(runsOn(cpu), "fib-go");
    for (unsigned cpu : {4u, 5u, 6u})
        EXPECT_EQ(runsOn(cpu), "pager-py");
}

TEST(Invoker, ReplacementInheritsFreedCore)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.placement = InvokerConfig::Placement::OnePerCore;
    cfg.targetCount = 3;
    cfg.cpuPool = {4, 5, 6};
    cfg.seed = 11;
    Invoker invoker(engine, cfg);
    invoker.start();
    engine.run(0.6);
    // Population still pinned one per core on exactly the pool CPUs.
    EXPECT_EQ(invoker.liveCount(), 3u);
    for (unsigned cpu : {4u, 5u, 6u})
        EXPECT_EQ(engine.scheduler().queueLength(cpu), 1u);
}

TEST(Invoker, DeferredSlotsLaunchOnceMemoryFrees)
{
    // Two 1 GiB recogn-py fill a 2 GiB machine, so most of the six
    // pooled slots wait at start(). Completions free memory, and the
    // waiting slots must launch then (a 128 MiB float-py fits beside
    // one recogn-py) instead of being dropped for good.
    sim::MachineConfig cfg = machine();
    cfg.memoryCapacity = 2_GiB;
    sim::Engine engine(cfg);
    InvokerConfig icfg;
    icfg.placement = InvokerConfig::Placement::Pooled;
    icfg.targetCount = 6;
    icfg.cpuPool = {0, 1, 2, 3, 4, 5};
    icfg.functionPool.assign(7, &functionByName("recogn-py"));
    icfg.functionPool.push_back(&functionByName("float-py"));
    Invoker invoker(engine, icfg);
    invoker.start();
    ASSERT_LT(invoker.liveCount(), 6u);
    ASSERT_GT(invoker.deferredCount(), 0u);

    unsigned most = 0;
    for (int i = 0; i < 40; ++i) {
        engine.run(0.5);
        EXPECT_LE(invoker.committedMemory(), cfg.memoryCapacity);
        EXPECT_EQ(engine.taskCount(), invoker.liveCount());
        most = std::max(most, invoker.liveCount());
    }
    EXPECT_EQ(most, 6u);
    EXPECT_GT(invoker.liveCount(), 2u);
}

TEST(Invoker, ValidatesConfiguration)
{
    sim::Engine engine(machine());
    InvokerConfig noCpus;
    noCpus.cpuPool.clear();
    EXPECT_EXIT(Invoker(engine, noCpus), ::testing::ExitedWithCode(1),
                "cpuPool");

    InvokerConfig tooMany;
    tooMany.placement = InvokerConfig::Placement::OnePerCore;
    tooMany.targetCount = 5;
    tooMany.cpuPool = {0, 1};
    EXPECT_EXIT(Invoker(engine, tooMany), ::testing::ExitedWithCode(1),
                "OnePerCore");
}

TEST(Invoker, StartTwiceFatal)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.targetCount = 1;
    cfg.cpuPool = {0};
    Invoker invoker(engine, cfg);
    invoker.start();
    EXPECT_EXIT(invoker.start(), ::testing::ExitedWithCode(1), "twice");
}

TEST(Invoker, CustomFunctionPool)
{
    sim::Engine engine(machine());
    InvokerConfig cfg;
    cfg.targetCount = 4;
    cfg.cpuPool = {0, 1, 2, 3};
    cfg.functionPool = {&functionByName("float-py")};
    Invoker invoker(engine, cfg);
    invoker.start();
    for (sim::Task *task : engine.liveTasks())
        EXPECT_EQ(task->name(), "float-py");
}

TEST(Invoker, DeterministicSelectionPerSeed)
{
    auto namesFor = [](std::uint64_t seed) {
        sim::Engine engine(machine());
        InvokerConfig cfg;
        cfg.targetCount = 6;
        cfg.cpuPool = {0, 1, 2, 3, 4, 5};
        cfg.seed = seed;
        Invoker invoker(engine, cfg);
        invoker.start();
        std::vector<std::string> names;
        for (sim::Task *task : engine.liveTasks())
            names.push_back(task->name());
        return names;
    };
    EXPECT_EQ(namesFor(7), namesFor(7));
    EXPECT_NE(namesFor(7), namesFor(8));
}

} // namespace
} // namespace litmus::workload
