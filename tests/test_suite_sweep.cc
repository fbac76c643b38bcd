/**
 * @file
 * Parameterized sweep over all 27 Table 1 functions: per-function solo
 * invariants every workload model must satisfy regardless of its
 * calibrated parameters.
 */

#include <gtest/gtest.h>

#include "core/litmus_probe.h"
#include "sim/engine.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

namespace litmus::workload
{
namespace
{

class SuiteSweep : public ::testing::TestWithParam<std::string>
{
  protected:
    static const FunctionSpec &spec()
    {
        return functionByName(
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->value_param());
    }
};

TEST_P(SuiteSweep, SoloRunInvariants)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    const FunctionSpec &fn = functionByName(GetParam());

    const std::unique_ptr<sim::Task> run =
        sim::Engine(cfg).runToCompletion(makeNominalInvocation(fn, true));
    const sim::TaskCounters &c = run->counters();

    // Retired exactly the nominal program.
    EXPECT_NEAR(c.instructions, sim::totalInstructions(fn.nominalProgram()),
                1e3);

    // Accounting identity.
    EXPECT_NEAR(c.privateCycles() + c.stallSharedCycles, c.cycles, 1e-3);
    EXPECT_GE(c.stallSharedCycles, 0.0);

    // CPI plausible for a serverless function.
    const double cpi = c.cycles / c.instructions;
    EXPECT_GT(cpi, 0.3);
    EXPECT_LT(cpi, 3.0);

    // L3 misses cannot exceed L2 misses.
    EXPECT_LE(c.l3Misses, c.l2Misses + 1e-6);

    // The Litmus probe closed inside the startup.
    ASSERT_TRUE(run->probe().complete);
    const sim::TaskCounters window =
        run->probe().taskAtEnd.since(run->probe().taskAtStart);
    EXPECT_LE(window.instructions,
              sim::totalInstructions(startupProgram(fn.language)) + 1e6);

    // The probe reading is well-formed.
    const pricing::ProbeReading reading = pricing::readProbe(*run);
    EXPECT_GT(reading.privCpi, 0.0);
    EXPECT_GT(reading.sharedCpi, 0.0);

    // Solo shared share stays in a sane band.
    const double share = c.stallSharedCycles / c.cycles;
    EXPECT_GE(share, 0.0);
    EXPECT_LT(share, 0.5);
}

TEST_P(SuiteSweep, JitteredInvocationsDifferSlightly)
{
    const FunctionSpec &fn = functionByName(GetParam());
    Rng a(1), b(2);
    const auto ta = makeInvocation(fn, a);
    const auto tb = makeInvocation(fn, b);
    const double ia = sim::totalInstructions(ta->phases());
    const double ib = sim::totalInstructions(tb->phases());
    // Different draws, but within a few percent of each other.
    EXPECT_NEAR(ia, ib, 0.1 * ia);
    // Startup phases are never jittered: the probe substrate is
    // bit-identical.
    const auto &startup = startupProgram(fn.language);
    for (std::size_t i = 0; i < startup.size(); ++i) {
        EXPECT_DOUBLE_EQ(ta->phases()[i].instructions,
                         startup[i].instructions);
        EXPECT_DOUBLE_EQ(ta->phases()[i].demand.l2Mpki,
                         startup[i].demand.l2Mpki);
    }
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const FunctionSpec &spec : table1Suite())
        names.push_back(spec.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllFunctions, SuiteSweep, ::testing::ValuesIn(allNames()),
    [](const ::testing::TestParamInfo<std::string> &param) {
        std::string name = param.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace litmus::workload
