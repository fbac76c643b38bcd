/**
 * @file
 * Tests for Litmus-probe reading and slowdown computation.
 */

#include <gtest/gtest.h>

#include "core/litmus_probe.h"
#include "sim/engine.h"
#include "workload/function_model.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

namespace litmus::pricing
{
namespace
{

sim::ProbeCapture
syntheticCapture()
{
    sim::ProbeCapture cap;
    cap.started = true;
    cap.complete = true;
    cap.taskAtStart.instructions = 0;
    cap.taskAtStart.cycles = 0;
    cap.taskAtEnd.instructions = 10e6;
    cap.taskAtEnd.cycles = 15e6;
    cap.taskAtEnd.stallSharedCycles = 5e6;
    cap.machineAtStart.l3Misses = 1000;
    cap.machineAtStart.time = 0.0;
    cap.machineAtEnd.l3Misses = 601000;
    cap.machineAtEnd.time = 3e-3;
    return cap;
}

TEST(ReadProbe, ExtractsPerInstructionComponents)
{
    const ProbeReading r = readProbe(syntheticCapture());
    EXPECT_DOUBLE_EQ(r.instructions, 10e6);
    EXPECT_DOUBLE_EQ(r.privCpi, 1.0);
    EXPECT_DOUBLE_EQ(r.sharedCpi, 0.5);
    EXPECT_DOUBLE_EQ(r.totalCpi(), 1.5);
    // 600k misses over 3000 us.
    EXPECT_DOUBLE_EQ(r.machineL3MissPerUs, 200.0);
    EXPECT_TRUE(r.valid());
}

TEST(ReadProbe, IncompleteFatal)
{
    sim::ProbeCapture cap = syntheticCapture();
    cap.complete = false;
    EXPECT_EXIT(readProbe(cap), ::testing::ExitedWithCode(1),
                "incomplete");
}

TEST(SlowdownOf, ComponentRatios)
{
    ProbeReading base;
    base.privCpi = 0.8;
    base.sharedCpi = 0.2;
    base.instructions = 1e6;
    ProbeReading congested;
    congested.privCpi = 0.88;
    congested.sharedCpi = 0.5;
    congested.instructions = 1e6;
    const ProbeSlowdown s = slowdownOf(congested, base);
    EXPECT_NEAR(s.priv, 1.1, 1e-12);
    EXPECT_NEAR(s.shared, 2.5, 1e-12);
    EXPECT_NEAR(s.total, 1.38, 1e-12);
}

TEST(SlowdownOf, DegenerateBaselineFatal)
{
    ProbeReading base;
    base.privCpi = 1.0;
    base.sharedCpi = 0.0; // degenerate
    base.instructions = 1e6;
    ProbeReading reading = base;
    EXPECT_EXIT(slowdownOf(reading, base), ::testing::ExitedWithCode(1),
                "degenerate");
}

TEST(Probe, EndToEndSoloCapture)
{
    // A real function run alone: probe covers the startup window and
    // the slowdown against itself is exactly 1.
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    const auto &spec = workload::functionByName("aes-py");
    const auto run = sim::Engine(cfg).runToCompletion(
        workload::makeNominalInvocation(spec, true));
    ASSERT_TRUE(run->probe().complete);
    const ProbeReading reading = readProbe(*run);
    EXPECT_GE(reading.instructions,
              workload::probeWindow(spec.language));
    EXPECT_GT(reading.privCpi, 0.0);
    EXPECT_GT(reading.sharedCpi, 0.0);
    const ProbeSlowdown self = slowdownOf(reading, reading);
    EXPECT_DOUBLE_EQ(self.priv, 1.0);
    EXPECT_DOUBLE_EQ(self.shared, 1.0);
}

TEST(Probe, SameLanguageFunctionsProbeAlike)
{
    // Two different Python functions must produce nearly identical
    // probe readings (the startup is shared) — the core Litmus
    // assumption.
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    auto readFor = [&](const char *name) {
        return readProbe(*sim::Engine(cfg).runToCompletion(
            workload::makeNominalInvocation(workload::functionByName(name),
                                            true)));
    };
    const ProbeReading a = readFor("float-py");
    const ProbeReading b = readFor("pager-py");
    EXPECT_NEAR(a.privCpi, b.privCpi, a.privCpi * 0.01);
    EXPECT_NEAR(a.sharedCpi, b.sharedCpi, a.sharedCpi * 0.02);
}

} // namespace
} // namespace litmus::pricing
