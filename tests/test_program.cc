/**
 * @file
 * Tests for phases, phase programs, and the program task.
 */

#include <gtest/gtest.h>

#include "workload/program.h"

namespace litmus::workload
{
namespace
{

Phase
phase(const char *name, double minstr)
{
    Phase p;
    p.name = name;
    p.instructions = minstr * 1e6;
    p.demand.cpi0 = 1.0;
    return p;
}

TEST(Phase, ValidateRejectsEmpty)
{
    Phase p = phase("x", 0);
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "instructions");
}

TEST(Phase, JitterPerturbsWithinBounds)
{
    Rng rng(5);
    const Phase base = phase("x", 100);
    for (int i = 0; i < 100; ++i) {
        const Phase j = jitterPhase(base, rng, 0.02, 0.02);
        EXPECT_GT(j.instructions, base.instructions * 0.9);
        EXPECT_LT(j.instructions, base.instructions * 1.1);
    }
}

TEST(Phase, JitterPreservesOtherFields)
{
    Rng rng(5);
    Phase base = phase("x", 100);
    base.demand.l3WorkingSet = 3_MiB;
    base.demand.mlp = 4.0;
    const Phase j = jitterPhase(base, rng, 0.02, 0.02);
    EXPECT_EQ(j.name, base.name);
    EXPECT_EQ(j.demand.l3WorkingSet, base.demand.l3WorkingSet);
    EXPECT_DOUBLE_EQ(j.demand.mlp, base.demand.mlp);
}

TEST(PhaseProgram, TotalInstructions)
{
    const PhaseProgram p({phase("a", 10), phase("b", 20)});
    EXPECT_DOUBLE_EQ(p.totalInstructions(), 30e6);
    EXPECT_EQ(p.size(), 2u);
}

TEST(PhaseProgram, AppendBuilder)
{
    PhaseProgram p;
    EXPECT_TRUE(p.empty());
    p.append(phase("a", 5)).append(phase("b", 5));
    EXPECT_EQ(p.size(), 2u);
}

TEST(ProgramTask, WalksPhases)
{
    ProgramTask task("t", PhaseProgram({phase("a", 1), phase("b", 2)}));
    EXPECT_EQ(task.phaseIndex(), 0u);
    EXPECT_DOUBLE_EQ(task.remainingInPhase(), 1e6);
    task.retire(0.4e6);
    EXPECT_EQ(task.phaseIndex(), 0u);
    EXPECT_DOUBLE_EQ(task.remainingInPhase(), 0.6e6);
    task.retire(0.6e6);
    EXPECT_EQ(task.phaseIndex(), 1u);
    EXPECT_FALSE(task.finished());
    task.retire(2e6);
    EXPECT_TRUE(task.finished());
}

TEST(ProgramTask, RetireAcrossBoundary)
{
    ProgramTask task("t", PhaseProgram({phase("a", 1), phase("b", 2)}));
    // A single retire crossing a phase boundary carries the remainder.
    task.retire(1.5e6);
    EXPECT_EQ(task.phaseIndex(), 1u);
    EXPECT_NEAR(task.remainingInPhase(), 1.5e6, 1.0);
}

TEST(ProgramTask, EmptyProgramFatal)
{
    EXPECT_EXIT(ProgramTask("t", PhaseProgram{}),
                ::testing::ExitedWithCode(1), "empty");
}

TEST(ProgramTask, DemandAfterFinishPanics)
{
    ProgramTask task("t", PhaseProgram({phase("a", 1)}));
    task.retire(1e6);
    ASSERT_TRUE(task.finished());
    EXPECT_DEATH((void)task.demand(), "completion");
}

TEST(ProgramTask, DemandTracksPhase)
{
    Phase a = phase("a", 1);
    a.demand.l2Mpki = 1.0;
    Phase b = phase("b", 1);
    b.demand.l2Mpki = 9.0;
    ProgramTask task("t", PhaseProgram({a, b}));
    EXPECT_DOUBLE_EQ(task.demand().l2Mpki, 1.0);
    task.retire(1e6);
    EXPECT_DOUBLE_EQ(task.demand().l2Mpki, 9.0);
}

} // namespace
} // namespace litmus::workload
