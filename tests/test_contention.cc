/**
 * @file
 * Tests for the shared-resource contention solver: queue curve,
 * capacity-pressure miss model, and fixed-point behaviour, plus
 * differential tests of the solver and the memo against frozen
 * reference copies of their straightforward forms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <list>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "sim/contention.h"
#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

MachineConfig
cfg()
{
    return MachineCatalog::get("cascade-5218");
}

ResourceDemand
computeDemand()
{
    ResourceDemand d;
    d.cpi0 = 0.6;
    d.l2Mpki = 0.05;
    d.l3WorkingSet = 256_KiB;
    d.l3MissBase = 0.05;
    d.mlp = 2.0;
    return d;
}

ResourceDemand
memoryDemand()
{
    ResourceDemand d;
    d.cpi0 = 0.6;
    d.l2Mpki = 30.0;
    d.l3WorkingSet = 8_MiB;
    d.l3MissBase = 0.8;
    d.mlp = 8.0;
    return d;
}

TEST(QueueFactor, BoundsAndMonotonicity)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    EXPECT_DOUBLE_EQ(solver.queueFactor(0.0, 4.0), 1.0);
    EXPECT_DOUBLE_EQ(solver.queueFactor(1.0, 4.0), 4.0);
    EXPECT_DOUBLE_EQ(solver.queueFactor(2.0, 4.0), 4.0); // clamped
    double prev = 0.0;
    for (double u = 0.0; u <= 1.0; u += 0.05) {
        const double qf = solver.queueFactor(u, 4.0);
        EXPECT_GE(qf, prev);
        EXPECT_GE(qf, 1.0);
        EXPECT_LE(qf, 4.0);
        prev = qf;
    }
}

TEST(MissFraction, FullShareGivesBaseline)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto d = memoryDemand();
    EXPECT_DOUBLE_EQ(
        solver.missFraction(d, static_cast<double>(d.l3WorkingSet)),
        d.l3MissBase);
    // More than the working set changes nothing.
    EXPECT_DOUBLE_EQ(
        solver.missFraction(d, 2.0 * static_cast<double>(d.l3WorkingSet)),
        d.l3MissBase);
}

TEST(MissFraction, ZeroShareGivesFullMiss)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    EXPECT_DOUBLE_EQ(solver.missFraction(memoryDemand(), 0.0), 1.0);
}

TEST(MissFraction, MonotoneInDeficit)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto d = memoryDemand();
    const double ws = static_cast<double>(d.l3WorkingSet);
    double prev = 1.1;
    for (double share = 0.0; share <= ws; share += ws / 16) {
        const double m = solver.missFraction(d, share);
        EXPECT_LE(m, prev);
        EXPECT_GE(m, d.l3MissBase);
        EXPECT_LE(m, 1.0);
        prev = m;
    }
}

TEST(MissFraction, NoTrafficMeansNoMisses)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ResourceDemand d = computeDemand();
    d.l2Mpki = 0.0;
    EXPECT_DOUBLE_EQ(solver.missFraction(d, 0.0), 0.0);
}

TEST(Solve, EmptyInputs)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto result = solver.solve({}, machine.baseFrequency);
    EXPECT_TRUE(result.threads.empty());
    EXPECT_DOUBLE_EQ(result.shared.l3Utilization, 0.0);
    EXPECT_DOUBLE_EQ(result.shared.l3LatencyNs, machine.l3HitLatencyNs);
}

TEST(Solve, SingleComputeThreadNearBaseline)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto result = solver.solve({{computeDemand(), {}}},
                                     machine.baseFrequency);
    ASSERT_EQ(result.threads.size(), 1u);
    EXPECT_LT(result.shared.l3Utilization, 0.01);
    EXPECT_LT(result.shared.memUtilization, 0.01);
    EXPECT_NEAR(result.threads[0].privateCpi, 0.6, 0.01);
    EXPECT_LT(result.threads[0].stallPerInstr, 0.01);
}

TEST(Solve, UtilizationGrowsWithThreads)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    double prevU = 0.0;
    for (unsigned n : {1u, 4u, 8u, 16u, 32u}) {
        std::vector<SolverInput> inputs(n,
                                        SolverInput{memoryDemand(), {}});
        const auto result = solver.solve(inputs, machine.baseFrequency);
        EXPECT_GE(result.shared.memUtilization, prevU);
        prevU = result.shared.memUtilization;
    }
    EXPECT_GT(prevU, 0.3);
}

TEST(Solve, LatenciesGrowWithLoad)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto light = solver.solve({{memoryDemand(), {}}},
                                    machine.baseFrequency);
    std::vector<SolverInput> many(24, SolverInput{memoryDemand(), {}});
    const auto heavy = solver.solve(many, machine.baseFrequency);
    EXPECT_GT(heavy.shared.memLatencyNs, light.shared.memLatencyNs);
    EXPECT_GE(heavy.shared.l3LatencyNs, light.shared.l3LatencyNs);
    EXPECT_GT(heavy.threads[0].stallPerInstr,
              light.threads[0].stallPerInstr);
}

TEST(Solve, CapacityPressureRaisesMissFraction)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto alone = solver.solve({{memoryDemand(), {}}},
                                    machine.baseFrequency);
    std::vector<SolverInput> crowd(20, SolverInput{memoryDemand(), {}});
    const auto crowded = solver.solve(crowd, machine.baseFrequency);
    EXPECT_GT(crowded.threads[0].l3MissFraction,
              alone.threads[0].l3MissFraction);
}

TEST(Solve, WarmthAndSmtInflatePrivateCpi)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ThreadEnvironment env;
    env.warmthMult = 1.05;
    env.smtMult = 1.95;
    const auto result = solver.solve({{computeDemand(), env}},
                                     machine.baseFrequency);
    EXPECT_NEAR(result.threads[0].privateCpi, 0.6 * 1.05 * 1.95, 0.02);
}

TEST(Solve, ComputeThreadImmuneToCrowd)
{
    // The float-py property: a compute-bound thread's private CPI
    // barely moves even in a heavily congested machine.
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    std::vector<SolverInput> inputs(30, SolverInput{memoryDemand(), {}});
    inputs.push_back({computeDemand(), {}});
    const auto result = solver.solve(inputs, machine.baseFrequency);
    const ThreadPerf &compute = result.threads.back();
    EXPECT_LT(compute.privateCpi, 0.6 * 1.01);
    EXPECT_LT(compute.stallPerInstr / compute.cpi(), 0.05);
}

TEST(Solve, FrequencyScalesStallCycles)
{
    // Same physical latency costs more cycles at a higher clock.
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const auto slow = solver.solve({{memoryDemand(), {}}}, 2.0e9);
    const auto fast = solver.solve({{memoryDemand(), {}}}, 4.0e9);
    EXPECT_GT(fast.threads[0].stallPerInstr,
              slow.threads[0].stallPerInstr * 1.5);
}

TEST(Solve, CtGenSignature)
{
    // CT-Gen-like load: high L3-path utilization, low DRAM pressure.
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ResourceDemand ct;
    ct.cpi0 = 0.55;
    ct.l2Mpki = 60.0;
    ct.l3WorkingSet = 640_KiB;
    ct.l3MissBase = 0.02;
    ct.mlp = 6.0;
    std::vector<SolverInput> inputs(24, SolverInput{ct, {}});
    const auto result = solver.solve(inputs, machine.baseFrequency);
    EXPECT_GT(result.shared.l3Utilization, 0.4);
    EXPECT_LT(result.shared.memUtilization, 0.25);
}

TEST(Solve, MbGenSignature)
{
    // MB-Gen-like load: DRAM saturated.
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ResourceDemand mb;
    mb.cpi0 = 0.55;
    mb.l2Mpki = 34.0;
    mb.l3WorkingSet = 8_MiB;
    mb.l3MissBase = 0.92;
    mb.mlp = 8.0;
    std::vector<SolverInput> inputs(24, SolverInput{mb, {}});
    const auto result = solver.solve(inputs, machine.baseFrequency);
    // Bounded-latency queuing self-throttles MB-Gen (its defining
    // Figure 1 behaviour), so utilization equilibrates below 1.
    EXPECT_GT(result.shared.memUtilization, 0.45);
}

TEST(ThreadPerf, CpiDecomposition)
{
    ThreadPerf perf;
    perf.privateCpi = 0.7;
    perf.stallPerInstr = 0.3;
    EXPECT_DOUBLE_EQ(perf.cpi(), 1.0);
    EXPECT_DOUBLE_EQ(perf.ipc(), 1.0);
}

/** Property sweep: stall per instruction is monotone in thread count. */
class StallMonotone : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(StallMonotone, MoreThreadsMoreStall)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const unsigned n = GetParam();
    std::vector<SolverInput> small(n, SolverInput{memoryDemand(), {}});
    std::vector<SolverInput> large(n + 4,
                                   SolverInput{memoryDemand(), {}});
    const auto a = solver.solve(small, machine.baseFrequency);
    const auto b = solver.solve(large, machine.baseFrequency);
    EXPECT_LE(a.threads[0].stallPerInstr,
              b.threads[0].stallPerInstr * 1.0001);
}

INSTANTIATE_TEST_SUITE_P(Counts, StallMonotone,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u, 20u,
                                           24u));

TEST(ContentionMemo, HitReturnsBitIdenticalResult)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    std::vector<SolverInput> inputs(4, SolverInput{memoryDemand(), {}});

    const ContentionResult fresh =
        solver.solve(inputs, machine.baseFrequency, 1e6);
    const ContentionResult first =
        memo.solve(solver, inputs, machine.baseFrequency, 1e6);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 0u);
    const ContentionResult second =
        memo.solve(solver, inputs, machine.baseFrequency, 1e6);
    EXPECT_EQ(memo.hits(), 1u);

    for (const ContentionResult *r : {&first, &second}) {
        EXPECT_EQ(r->shared.l3LatencyNs, fresh.shared.l3LatencyNs);
        EXPECT_EQ(r->shared.memLatencyNs, fresh.shared.memLatencyNs);
        EXPECT_EQ(r->shared.l3Utilization, fresh.shared.l3Utilization);
        EXPECT_EQ(r->shared.memUtilization,
                  fresh.shared.memUtilization);
        ASSERT_EQ(r->threads.size(), fresh.threads.size());
        for (std::size_t i = 0; i < fresh.threads.size(); ++i) {
            EXPECT_EQ(r->threads[i].privateCpi,
                      fresh.threads[i].privateCpi);
            EXPECT_EQ(r->threads[i].stallPerInstr,
                      fresh.threads[i].stallPerInstr);
            EXPECT_EQ(r->threads[i].l3MissFraction,
                      fresh.threads[i].l3MissFraction);
        }
    }
}

TEST(ContentionMemo, DistinguishesEveryKeyComponent)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    std::vector<SolverInput> inputs(2, SolverInput{memoryDemand(), {}});

    memo.solve(solver, inputs, machine.baseFrequency, 0.0);
    // Different frequency, waiting working set, environment, demand:
    // each must miss, never alias.
    memo.solve(solver, inputs, machine.turboFrequency, 0.0);
    memo.solve(solver, inputs, machine.baseFrequency, 5e6);
    inputs[0].env.warmthMult = 1.01;
    memo.solve(solver, inputs, machine.baseFrequency, 0.0);
    inputs[0].env.warmthMult = 1.0;
    inputs[1].demand.l2Mpki += 0.5;
    memo.solve(solver, inputs, machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.misses(), 5u);
    EXPECT_EQ(memo.hits(), 0u);
}

TEST(ContentionMemo, BypassesItselfOnLowHitRate)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    std::vector<SolverInput> inputs(1, SolverInput{memoryDemand(), {}});
    // A stream of unique signatures (jittered fleet traffic) must trip
    // the hit-rate watchdog...
    for (int i = 0; i < 2100 && !memo.bypassed(); ++i) {
        inputs[0].demand.l2Mpki = 1.0 + 1e-4 * i;
        memo.solve(solver, inputs, machine.baseFrequency, 0.0);
    }
    EXPECT_TRUE(memo.bypassed());
    EXPECT_EQ(memo.size(), 0u);
    // ...and bypassed solves still return bit-identical results.
    inputs[0].demand.l2Mpki = 5.0;
    const ContentionResult fresh =
        solver.solve(inputs, machine.baseFrequency, 0.0);
    const ContentionResult &bypassed =
        memo.solve(solver, inputs, machine.baseFrequency, 0.0);
    EXPECT_EQ(bypassed.shared.memUtilization,
              fresh.shared.memUtilization);
    EXPECT_EQ(bypassed.threads[0].stallPerInstr,
              fresh.threads[0].stallPerInstr);
}

TEST(ContentionMemo, HighHitRateStaysEnabled)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    std::vector<SolverInput> inputs(1, SolverInput{memoryDemand(), {}});
    // Recurring signatures (the Table 1 suite shape) keep the memo on.
    for (int i = 0; i < 6000; ++i) {
        inputs[0].demand.l2Mpki = 1.0 + (i % 16);
        memo.solve(solver, inputs, machine.baseFrequency, 0.0);
    }
    EXPECT_FALSE(memo.bypassed());
    EXPECT_EQ(memo.misses(), 16u);
}

TEST(ContentionMemo, EvictsLeastRecentlyUsed)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo(2);
    auto inputsAt = [&](double mpki) {
        std::vector<SolverInput> inputs(1,
                                        SolverInput{memoryDemand(), {}});
        inputs[0].demand.l2Mpki = mpki;
        return inputs;
    };
    memo.solve(solver, inputsAt(1.0), machine.baseFrequency, 0.0);
    memo.solve(solver, inputsAt(2.0), machine.baseFrequency, 0.0);
    // Touch 1.0 so 2.0 becomes the LRU entry, then insert a third.
    memo.solve(solver, inputsAt(1.0), machine.baseFrequency, 0.0);
    memo.solve(solver, inputsAt(3.0), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.size(), 2u);
    memo.solve(solver, inputsAt(1.0), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.hits(), 2u); // 1.0 survived
    memo.solve(solver, inputsAt(2.0), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.misses(), 4u); // 2.0 was evicted
}

/** @p threads running threads; @p variant makes the signature unique. */
std::vector<SolverInput>
signature(std::size_t threads, int variant)
{
    std::vector<SolverInput> inputs(threads,
                                    SolverInput{memoryDemand(), {}});
    inputs[0].demand.l2Mpki = 1.0 + 1e-3 * variant;
    return inputs;
}

/** Bitwise equality of two solver results. */
void
expectBitIdentical(const ContentionResult &a, const ContentionResult &b)
{
    EXPECT_EQ(a.shared.l3LatencyNs, b.shared.l3LatencyNs);
    EXPECT_EQ(a.shared.memLatencyNs, b.shared.memLatencyNs);
    EXPECT_EQ(a.shared.l3Utilization, b.shared.l3Utilization);
    EXPECT_EQ(a.shared.memUtilization, b.shared.memUtilization);
    EXPECT_EQ(a.shared.totalWorkingSet, b.shared.totalWorkingSet);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t i = 0; i < a.threads.size(); ++i) {
        EXPECT_EQ(a.threads[i].privateCpi, b.threads[i].privateCpi);
        EXPECT_EQ(a.threads[i].stallPerInstr,
                  b.threads[i].stallPerInstr);
        EXPECT_EQ(a.threads[i].l3MissFraction,
                  b.threads[i].l3MissFraction);
    }
}

TEST(ContentionMemo, WordBudgetEvictsWideSignatures)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    // A saturated machine: 31 threads = 2 + 10 * 31 = 312 words an
    // entry, so the 1024 * 32-word budget holds 105 of them.
    const std::size_t budget =
        memo.capacity() * ContentionMemo::kWordsPerEntry;
    for (int i = 0; i < 200; ++i) {
        memo.solve(solver, signature(31, i), machine.baseFrequency, 0.0);
        EXPECT_LE(memo.words(), budget);
    }
    EXPECT_EQ(memo.size(), budget / 312);
    EXPECT_EQ(memo.words(), memo.size() * 312);
    EXPECT_FALSE(memo.bypassed());
}

TEST(ContentionMemo, NarrowSignaturesKeepFullCapacity)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    // Three threads = 32 words, exactly the per-entry budget: the
    // entry cap, not the word budget, binds, as before the budget.
    for (int i = 0; i < 1100; ++i)
        memo.solve(solver, signature(3, i), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.size(), memo.capacity());
    EXPECT_EQ(memo.words(),
              memo.capacity() * ContentionMemo::kWordsPerEntry);
    // The oldest 76 were evicted, the newest kept.
    const std::uint64_t misses = memo.misses();
    memo.solve(solver, signature(3, 1099), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.hits(), 1u);
    memo.solve(solver, signature(3, 75), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.misses(), misses + 1);
}

TEST(ContentionMemo, HitAfterBudgetEvictionIsBitIdentical)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    for (int i = 0; i < 150; ++i)
        memo.solve(solver, signature(31, i), machine.baseFrequency, 1e6);
    // Entry 0 was evicted by the budget (a miss that re-solves);
    // entry 149 survived (a hit from the memo). Both match a fresh
    // solve bit for bit.
    for (const int variant : {0, 149}) {
        const ContentionResult fresh = solver.solve(
            signature(31, variant), machine.baseFrequency, 1e6);
        const std::uint64_t hits = memo.hits();
        const ContentionResult &memoized = memo.solve(
            solver, signature(31, variant), machine.baseFrequency, 1e6);
        EXPECT_EQ(memo.hits(), hits + (variant == 149 ? 1 : 0));
        expectBitIdentical(memoized, fresh);
    }
}

TEST(ContentionMemo, OversizedEntryIsKeptAndReturned)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo(1);
    // 4 threads = 42 words > the 32-word budget of a capacity-1 memo:
    // the entry being returned is never the one evicted.
    const ContentionResult fresh =
        solver.solve(signature(4, 0), machine.baseFrequency, 0.0);
    const ContentionResult &memoized =
        memo.solve(solver, signature(4, 0), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.size(), 1u);
    EXPECT_EQ(memo.words(), 42u);
    expectBitIdentical(memoized, fresh);
    memo.solve(solver, signature(4, 0), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(ContentionMemo, BypassResetsWordCount)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    for (int i = 0; i < 2100 && !memo.bypassed(); ++i) {
        memo.solve(solver, signature(2, i), machine.baseFrequency, 0.0);
        if (!memo.bypassed()) {
            EXPECT_GT(memo.words(), 0u);
        }
    }
    ASSERT_TRUE(memo.bypassed());
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.words(), 0u);
    memo.solve(solver, signature(2, 0), machine.baseFrequency, 0.0);
    EXPECT_EQ(memo.words(), 0u);
}

// ---------------------------------------------------------------------
// Differential oracles. The reference solve calls threadPerf() for
// every thread in every round (the unhoisted fixed point); the
// reference memo keeps a second key copy in its index and allocates a
// fresh entry on every miss. The real ones must agree bit for bit.

/** The fixed point with every per-thread term recomputed each round. */
ContentionResult
referenceSolve(const ContentionSolver &solver, const MachineConfig &c,
               const std::vector<SolverInput> &inputs, Hertz frequency,
               double waiting_working_set)
{
    ContentionResult result;
    result.threads.resize(inputs.size());

    SharedState &shared = result.shared;
    shared.l3LatencyNs = c.l3HitLatencyNs;
    shared.memLatencyNs = c.memLatencyNs;
    shared.totalWorkingSet =
        c.residencyFactor * std::max(0.0, waiting_working_set);
    for (const auto &input : inputs)
        shared.totalWorkingSet +=
            static_cast<double>(input.demand.l3WorkingSet);

    if (inputs.empty())
        return result;

    const double ghz = frequency * 1e-9;
    constexpr int iterations = 4;
    constexpr double damping = 0.6;
    double uL3 = 0.0;
    double uMem = 0.0;

    for (int iter = 0; iter < iterations; ++iter) {
        shared.l3Utilization = uL3;
        shared.memUtilization = uMem;
        shared.l3LatencyNs =
            c.l3HitLatencyNs * solver.queueFactor(uL3, c.l3QueueMax);
        shared.memLatencyNs =
            c.memLatencyNs * solver.queueFactor(uMem, c.memQueueMax);

        double l3AccessPerNs = 0.0;
        double memLinesPerNs = 0.0;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            result.threads[i] = solver.threadPerf(
                inputs[i].demand, inputs[i].env, shared, frequency);
            const ThreadPerf &perf = result.threads[i];
            const double ipns = ghz / perf.cpi();
            const double missesPerNs =
                ipns * inputs[i].demand.l2Mpki / 1000.0;
            l3AccessPerNs += missesPerNs;
            memLinesPerNs += missesPerNs * perf.l3MissFraction;
        }

        const double newUL3 =
            std::min(l3AccessPerNs / c.l3ServiceRate, 1.0);
        const double newUMem =
            std::min(memLinesPerNs / c.memServiceRate, 1.0);
        uL3 = damping * newUL3 + (1.0 - damping) * uL3;
        uMem = damping * newUMem + (1.0 - damping) * uMem;
    }

    shared.l3Utilization = uL3;
    shared.memUtilization = uMem;
    shared.l3LatencyNs =
        c.l3HitLatencyNs * solver.queueFactor(uL3, c.l3QueueMax);
    shared.memLatencyNs =
        c.memLatencyNs * solver.queueFactor(uMem, c.memQueueMax);
    for (std::size_t i = 0; i < inputs.size(); ++i)
        result.threads[i] = solver.threadPerf(
            inputs[i].demand, inputs[i].env, shared, frequency);
    return result;
}

/** The first field whose bits differ ("" when all agree). */
std::string
bitDiff(const ContentionResult &want, const ContentionResult &got)
{
    std::ostringstream out;
    const auto field = [&](const char *name, double a, double b,
                           std::size_t thread = SIZE_MAX) {
        if (out.tellp() > 0 || std::bit_cast<std::uint64_t>(a) ==
                                   std::bit_cast<std::uint64_t>(b))
            return;
        if (thread != SIZE_MAX)
            out << "thread " << thread << " ";
        out << name << ": want " << a << " got " << b;
    };
    field("l3LatencyNs", want.shared.l3LatencyNs, got.shared.l3LatencyNs);
    field("memLatencyNs", want.shared.memLatencyNs,
          got.shared.memLatencyNs);
    field("l3Utilization", want.shared.l3Utilization,
          got.shared.l3Utilization);
    field("memUtilization", want.shared.memUtilization,
          got.shared.memUtilization);
    field("totalWorkingSet", want.shared.totalWorkingSet,
          got.shared.totalWorkingSet);
    if (want.threads.size() != got.threads.size()) {
        out << "threads: want " << want.threads.size() << " got "
            << got.threads.size();
        return out.str();
    }
    for (std::size_t i = 0; i < want.threads.size(); ++i) {
        field("privateCpi", want.threads[i].privateCpi,
              got.threads[i].privateCpi, i);
        field("stallPerInstr", want.threads[i].stallPerInstr,
              got.threads[i].stallPerInstr, i);
        field("l3MissFraction", want.threads[i].l3MissFraction,
              got.threads[i].l3MissFraction, i);
    }
    return out.str();
}

/**
 * Seeded random co-run: cpi0, mpki (zero in ~1 of 8 threads), working
 * set (zero in ~1 of 8), miss base, mlp, warmth and SMT multipliers.
 * @p squeeze picks working sets that usually overflow the L3.
 */
std::vector<SolverInput>
randomInputs(Rng &rng, const MachineConfig &c, std::size_t threads,
             bool squeeze)
{
    const double l3 = static_cast<double>(c.l3Capacity);
    const double maxWs =
        squeeze ? l3 : l3 / static_cast<double>(threads + 2);
    std::vector<SolverInput> inputs(threads);
    for (SolverInput &in : inputs) {
        in.demand.cpi0 = rng.uniform(0.3, 2.0);
        in.demand.l2Mpki = rng.chance(0.125) ? 0.0 : rng.uniform(0, 60);
        in.demand.l3WorkingSet =
            rng.chance(0.125)
                ? 0
                : static_cast<Bytes>(rng.uniform(0.0, maxWs));
        in.demand.l3MissBase = rng.uniform();
        in.demand.mlp = rng.uniform(1.0, 10.0);
        in.env.warmthMult = rng.chance(0.5) ? 1.0 : rng.uniform(1.0, 1.6);
        in.env.smtMult = rng.chance(0.5) ? 1.0 : c.smtCpiMultiplier;
    }
    return inputs;
}

TEST(SolveDifferential, MatchesPerRoundThreadPerfBitForBit)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    const double l3 = static_cast<double>(machine.l3Capacity);
    Rng rng(0x5eed0c0ffeeull);
    ContentionResult reused; // solve-into target, reused across cases
    int squeezed = 0;
    int unsqueezed = 0;
    for (int n = 0; n < 3000; ++n) {
        const std::size_t threads = n < 65 ? n : rng.below(65);
        const bool squeeze = rng.chance(0.5);
        const auto inputs = randomInputs(rng, machine, threads, squeeze);
        const Hertz freq = rng.chance(0.5) ? machine.baseFrequency
                                           : machine.turboFrequency;
        const double waiting =
            rng.chance(0.5) ? 0.0 : rng.uniform(-1e6, l3);

        const ContentionResult want =
            referenceSolve(solver, machine, inputs, freq, waiting);
        if (threads > 0)
            ++(want.shared.totalWorkingSet > l3 ? squeezed : unsqueezed);
        ASSERT_EQ(bitDiff(want, solver.solve(inputs, freq, waiting)), "")
            << "case " << n << ", " << threads << " threads";
        solver.solve(inputs, freq, waiting, reused);
        ASSERT_EQ(bitDiff(want, reused), "")
            << "reused result, case " << n << ", " << threads
            << " threads";
    }
    // Both sides of the capacity squeeze were exercised.
    EXPECT_GT(squeezed, 500);
    EXPECT_GT(unsqueezed, 500);
}

/**
 * The memo before its miss path was made allocation-free: the index
 * holds a second copy of every key, a miss allocates a new entry and
 * eviction hashes the evicted key again. Misses solve with
 * referenceSolve.
 */
class ReferenceMemo
{
  public:
    ReferenceMemo(const MachineConfig &c, std::size_t capacity)
        : cfg_(c), capacity_(capacity)
    {
    }

    const ContentionResult &solve(const ContentionSolver &solver,
                                  const std::vector<SolverInput> &inputs,
                                  Hertz frequency,
                                  double waiting_working_set)
    {
        if (bypassed_) {
            ++misses_;
            bypassResult_ = referenceSolve(solver, cfg_, inputs,
                                           frequency, waiting_working_set);
            return bypassResult_;
        }
        makeKey(inputs, frequency, waiting_working_set);
        const auto it = index_.find(keyBuffer_);
        if (it != index_.end()) {
            ++hits_;
            entries_.splice(entries_.begin(), entries_, it->second);
            return entries_.front().second;
        }
        ++misses_;
        if (misses_ >= 2048 && hits_ * 5 < misses_) {
            bypassed_ = true;
            entries_.clear();
            index_.clear();
            words_ = 0;
            bypassResult_ = referenceSolve(solver, cfg_, inputs,
                                           frequency, waiting_working_set);
            return bypassResult_;
        }
        entries_.emplace_front(keyBuffer_,
                               referenceSolve(solver, cfg_, inputs,
                                              frequency,
                                              waiting_working_set));
        index_.emplace(entries_.front().first, entries_.begin());
        words_ += entryWords(entries_.front());
        while (entries_.size() > 1 &&
               (entries_.size() > capacity_ ||
                words_ > capacity_ * ContentionMemo::kWordsPerEntry)) {
            words_ -= entryWords(entries_.back());
            index_.erase(entries_.back().first);
            entries_.pop_back();
        }
        return entries_.front().second;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t size() const { return entries_.size(); }
    std::size_t words() const { return words_; }
    bool bypassed() const { return bypassed_; }

  private:
    using Key = std::vector<std::uint64_t>;
    using Entry = std::pair<Key, ContentionResult>;

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const
        {
            std::uint64_t h = 0xcbf29ce484222325ull;
            for (std::uint64_t word : key) {
                h ^= word;
                h *= 0x100000001b3ull;
            }
            return static_cast<std::size_t>(h);
        }
    };

    static std::size_t entryWords(const Entry &entry)
    {
        return entry.first.size() + 3 * entry.second.threads.size();
    }

    void makeKey(const std::vector<SolverInput> &inputs, Hertz frequency,
                 double waiting_working_set)
    {
        const auto bits = [](double v) {
            return std::bit_cast<std::uint64_t>(v);
        };
        keyBuffer_.clear();
        keyBuffer_.push_back(bits(frequency));
        keyBuffer_.push_back(bits(waiting_working_set));
        for (const SolverInput &in : inputs) {
            keyBuffer_.push_back(bits(in.demand.cpi0));
            keyBuffer_.push_back(bits(in.demand.l2Mpki));
            keyBuffer_.push_back(in.demand.l3WorkingSet);
            keyBuffer_.push_back(bits(in.demand.l3MissBase));
            keyBuffer_.push_back(bits(in.demand.mlp));
            keyBuffer_.push_back(bits(in.env.warmthMult));
            keyBuffer_.push_back(bits(in.env.smtMult));
        }
    }

    const MachineConfig &cfg_;
    std::size_t capacity_;
    std::size_t words_ = 0;
    Key keyBuffer_;
    std::list<Entry> entries_;
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    bool bypassed_ = false;
    ContentionResult bypassResult_;
};

struct MemoStream
{
    std::size_t capacity;
    /** Chance that a lookup repeats an earlier signature. */
    double reuse;
    int calls;
    bool tripsWatchdog;
};

void
PrintTo(const MemoStream &stream, std::ostream *os)
{
    *os << "capacity " << stream.capacity << ", reuse " << stream.reuse
        << ", " << stream.calls << " calls";
}

class MemoDifferential : public ::testing::TestWithParam<MemoStream>
{
};

TEST_P(MemoDifferential, MatchesReferenceMemoAfterEveryCall)
{
    const MemoStream stream = GetParam();
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo(stream.capacity);
    ReferenceMemo reference(machine, stream.capacity);
    Rng rng(0xfeedull + stream.capacity);

    struct Signature
    {
        std::vector<SolverInput> inputs;
        Hertz frequency;
        double waiting;
    };
    std::vector<Signature> history;
    for (int call = 0; call < stream.calls; ++call) {
        if (history.empty() || !rng.chance(stream.reuse)) {
            // A fresh signature, 1-40 threads wide.
            const std::size_t threads = 1 + rng.below(40);
            history.push_back(
                {randomInputs(rng, machine, threads, rng.chance(0.5)),
                 rng.chance(0.5) ? machine.baseFrequency
                                 : machine.turboFrequency,
                 rng.chance(0.5) ? 0.0 : rng.uniform(0.0, 1e8)});
        } else {
            // Repeat one at a reuse distance from 1 up to 64 back.
            const std::size_t back =
                1 + rng.below(std::min<std::size_t>(history.size(),
                                                    1u << rng.below(7)));
            history.push_back(history[history.size() - back]);
        }
        const Signature &sig = history.back();
        const ContentionResult &want = reference.solve(
            solver, sig.inputs, sig.frequency, sig.waiting);
        const ContentionResult &got =
            memo.solve(solver, sig.inputs, sig.frequency, sig.waiting);
        ASSERT_EQ(memo.hits(), reference.hits()) << "call " << call;
        ASSERT_EQ(memo.misses(), reference.misses()) << "call " << call;
        ASSERT_EQ(memo.size(), reference.size()) << "call " << call;
        ASSERT_EQ(memo.words(), reference.words()) << "call " << call;
        ASSERT_EQ(memo.bypassed(), reference.bypassed())
            << "call " << call;
        ASSERT_EQ(bitDiff(want, got), "") << "call " << call;
    }
    EXPECT_EQ(memo.bypassed(), stream.tripsWatchdog);
    EXPECT_GT(memo.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, MemoDifferential,
    ::testing::Values(MemoStream{4, 0.6, 3000, false},
                      MemoStream{16, 0.6, 3000, false},
                      MemoStream{16, 0.15, 2600, true},
                      MemoStream{1024, 0.5, 3000, false}));

TEST(ContentionMemo, EqualHashesAreConfirmedByFullKey)
{
    const auto machine = cfg();
    const ContentionSolver solver(machine);
    ContentionMemo memo;
    const std::vector<SolverInput> inputs(2,
                                          SolverInput{memoryDemand(), {}});
    // The key starts with the bits of the frequency and of the waiting
    // working set, hashed by word-wise FNV-1a. Pick the second
    // signature's waiting working set so that its first two words
    // hash like the first signature's: the two keys then collide.
    constexpr std::uint64_t basis = 0xcbf29ce484222325ull;
    constexpr std::uint64_t prime = 0x100000001b3ull;
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    const Hertz freqA = machine.baseFrequency;
    const Hertz freqB = machine.turboFrequency;
    const double waitingA = 0.0;
    const double waitingB = std::bit_cast<double>(
        ((basis ^ bits(freqA)) * prime) ^ bits(waitingA) ^
        ((basis ^ bits(freqB)) * prime));
    ASSERT_EQ(((basis ^ bits(freqA)) * prime) ^ bits(waitingA),
              ((basis ^ bits(freqB)) * prime) ^ bits(waitingB));

    memo.solve(solver, inputs, freqA, waitingA);
    const ContentionResult &b = memo.solve(solver, inputs, freqB, waitingB);
    EXPECT_EQ(memo.hits(), 0u);
    EXPECT_EQ(memo.misses(), 2u);
    EXPECT_EQ(bitDiff(solver.solve(inputs, freqB, waitingB), b), "");
    memo.solve(solver, inputs, freqA, waitingA);
    EXPECT_EQ(memo.hits(), 1u);
}

} // namespace
} // namespace litmus::sim

