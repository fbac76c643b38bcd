/**
 * @file
 * Tests for the quantum-stepped engine: accounting identities, probe
 * capture, completion callbacks, churn, determinism, and idle-quantum
 * elision (runToTick).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "sim/engine.h"
#include "sim/machine.h"
#include "workload/program.h"
#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

using workload::Phase;
using workload::PhaseProgram;
using workload::ProgramTask;

MachineConfig
smallMachine(unsigned cores = 4)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.cores = cores;
    return cfg;
}

Phase
simplePhase(double minstr, double cpi0 = 1.0, double mpki = 5.0)
{
    Phase p;
    p.name = "p";
    p.instructions = minstr * 1e6;
    p.demand.cpi0 = cpi0;
    p.demand.l2Mpki = mpki;
    p.demand.l3WorkingSet = 1_MiB;
    p.demand.l3MissBase = 0.2;
    p.demand.mlp = 4.0;
    return p;
}

std::unique_ptr<ProgramTask>
simpleTask(double minstr = 50, Instructions probe = Task::noProbe)
{
    return std::make_unique<ProgramTask>(
        "t", PhaseProgram({simplePhase(minstr)}), probe);
}

TEST(Engine, RunsTaskToCompletion)
{
    Engine engine(smallMachine());
    bool done = false;
    std::string name;
    engine.onCompletion([&](Task &t) {
        done = true;
        name = t.name();
    });
    Task &task = engine.add(simpleTask());
    engine.runUntilComplete(task);
    EXPECT_TRUE(done);
    EXPECT_EQ(name, "t");
    EXPECT_EQ(engine.taskCount(), 0u);
}

TEST(Engine, CounterIdentities)
{
    Engine engine(smallMachine());
    TaskCounters counters;
    engine.onCompletion([&](Task &t) { counters = t.counters(); });
    Task &task = engine.add(simpleTask(50));
    engine.runUntilComplete(task);

    EXPECT_NEAR(counters.instructions, 50e6, 1e3);
    // T_private + T_shared == cycles.
    EXPECT_NEAR(counters.privateCycles() + counters.stallSharedCycles,
                counters.cycles, 1e-3);
    // L2 misses match the demand: 5 MPKI over 50M instructions.
    EXPECT_NEAR(counters.l2Misses, 250e3, 1e3);
    // Solo: L3 misses = base fraction of L2 misses.
    EXPECT_NEAR(counters.l3Misses, 0.2 * counters.l2Misses,
                counters.l2Misses * 0.01);
}

TEST(Engine, SoloCpiMatchesModel)
{
    // cpi = cpi0 + mpki/1000 * avg_lat_cycles / mlp at base frequency.
    const auto cfg = smallMachine();
    const RunResult run = runSolo(cfg, [] { return simpleTask(50); });
    const double cpi = run.counters.cycles / run.counters.instructions;
    const double ghz = cfg.baseFrequency * 1e-9;
    const double avgLat =
        (0.8 * cfg.l3HitLatencyNs + 0.2 * cfg.memLatencyNs) * ghz;
    const double expected = 1.0 + 0.005 * avgLat / 4.0;
    EXPECT_NEAR(cpi, expected, expected * 0.02);
}

TEST(Engine, WallTimeMatchesCycles)
{
    const auto cfg = smallMachine();
    const RunResult run = runSolo(cfg, [] { return simpleTask(50); });
    // Alone on a fixed-frequency machine, wall time ~= cycles / freq
    // (quantum rounding adds at most one quantum).
    EXPECT_NEAR(run.wallTime, run.counters.cycles / cfg.baseFrequency,
                100e-6);
}

TEST(Engine, ProbeCapturesAtWindow)
{
    Engine engine(smallMachine());
    ProbeCapture probe;
    engine.onCompletion([&](Task &t) { probe = t.probe(); });
    Task &task = engine.add(simpleTask(50, 10e6));
    engine.runUntilComplete(task);

    ASSERT_TRUE(probe.started);
    ASSERT_TRUE(probe.complete);
    const TaskCounters window = probe.taskAtEnd.since(probe.taskAtStart);
    EXPECT_GE(window.instructions, 10e6);
    // Window closes promptly (within a quantum's worth of work).
    EXPECT_LT(window.instructions, 10e6 + 1e6);
    EXPECT_GT(probe.machineAtEnd.time, probe.machineAtStart.time);
}

TEST(Engine, NoProbeWhenDisabled)
{
    Engine engine(smallMachine());
    ProbeCapture probe;
    engine.onCompletion([&](Task &t) { probe = t.probe(); });
    Task &task = engine.add(simpleTask(20));
    engine.runUntilComplete(task);
    EXPECT_FALSE(probe.started);
    EXPECT_FALSE(probe.complete);
}

TEST(Engine, MultiPhaseTaskRetiresAllPhases)
{
    PhaseProgram program({simplePhase(5, 0.5, 0.0),
                          simplePhase(7, 2.0, 20.0),
                          simplePhase(3, 1.0, 1.0)});
    Engine engine(smallMachine());
    TaskCounters counters;
    engine.onCompletion([&](Task &t) { counters = t.counters(); });
    Task &task = engine.add(
        std::make_unique<ProgramTask>("multi", program));
    engine.runUntilComplete(task);
    EXPECT_NEAR(counters.instructions, 15e6, 1e3);
}

TEST(Engine, CompletionChurnKeepsPopulation)
{
    Engine engine(smallMachine());
    int launched = 0;
    engine.onCompletion([&](Task &) {
        if (launched < 3) {
            ++launched;
            engine.add(simpleTask(1));
        }
    });
    engine.add(simpleTask(1));
    engine.run(0.2);
    EXPECT_EQ(launched, 3);
    EXPECT_EQ(engine.taskCount(), 0u);
}

TEST(Engine, MultipleListenersAllCalled)
{
    Engine engine(smallMachine());
    int a = 0, b = 0;
    engine.onCompletion([&](Task &) { ++a; });
    engine.onCompletion([&](Task &) { ++b; });
    Task &task = engine.add(simpleTask(1));
    engine.runUntilComplete(task);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 1);
}

TEST(Engine, QuantumObserverSeesSharedState)
{
    Engine engine(smallMachine());
    int calls = 0;
    double lastLat = 0;
    engine.onQuantum([&](Seconds, const SharedState &s) {
        ++calls;
        lastLat = s.l3LatencyNs;
    });
    engine.run(0.001);
    EXPECT_EQ(calls, 20); // 1 ms / 50 us
    EXPECT_GT(lastLat, 0.0);
}

TEST(Engine, TimeAdvances)
{
    Engine engine(smallMachine());
    EXPECT_DOUBLE_EQ(engine.now(), 0.0);
    engine.run(0.01);
    EXPECT_NEAR(engine.now(), 0.01, 1e-9);
    EXPECT_NEAR(engine.machineCounters().time, 0.01, 1e-9);
}

TEST(Engine, RunUntilCompleteCapFatal)
{
    Engine engine(smallMachine());
    Task &task = engine.add(std::make_unique<workload::EndlessTask>(
        "endless", ResourceDemand{}));
    EXPECT_EXIT(engine.runUntilComplete(task, 0.01),
                ::testing::ExitedWithCode(1), "did not finish");
}

TEST(Engine, AliveTracksOwnership)
{
    Engine engine(smallMachine());
    Task &task = engine.add(simpleTask(1));
    EXPECT_TRUE(engine.alive(task));
    EXPECT_TRUE(engine.aliveId(task.id()));
    const auto id = task.id();
    engine.runUntilCompleteId(id);
    EXPECT_FALSE(engine.aliveId(id));
}

TEST(Engine, LiveTasksView)
{
    Engine engine(smallMachine());
    engine.add(simpleTask(100));
    engine.add(simpleTask(100));
    EXPECT_EQ(engine.liveTasks().size(), 2u);
}

TEST(Engine, DeterministicAcrossRuns)
{
    auto runOnce = [] {
        Engine engine(smallMachine());
        TaskCounters counters;
        engine.onCompletion([&](Task &t) { counters = t.counters(); });
        Task &task = engine.add(simpleTask(30));
        engine.add(simpleTask(100)); // co-runner
        engine.runUntilComplete(task);
        return counters;
    };
    const TaskCounters a = runOnce();
    const TaskCounters b = runOnce();
    EXPECT_DOUBLE_EQ(a.cycles, b.cycles);
    EXPECT_DOUBLE_EQ(a.stallSharedCycles, b.stallSharedCycles);
    EXPECT_DOUBLE_EQ(a.l3Misses, b.l3Misses);
}

TEST(Engine, CoRunnerSlowsSubjectDown)
{
    const auto cfg = smallMachine();
    const RunResult solo = runSolo(cfg, [] { return simpleTask(30); });

    Engine engine(cfg);
    TaskCounters counters;
    engine.onCompletion([&](Task &t) {
        if (t.name() == "t")
            counters = t.counters();
    });
    // Memory-hungry co-runners on the other cores.
    for (int i = 0; i < 3; ++i) {
        ResourceDemand d;
        d.cpi0 = 0.6;
        d.l2Mpki = 30.0;
        d.l3WorkingSet = 16_MiB;
        d.l3MissBase = 0.8;
        d.mlp = 8.0;
        engine.add(
            std::make_unique<workload::EndlessTask>("hog", d));
    }
    Task &task = engine.add(simpleTask(30));
    engine.runUntilComplete(task);

    EXPECT_GT(counters.cycles, solo.counters.cycles * 1.01);
    EXPECT_GT(counters.stallSharedCycles,
              solo.counters.stallSharedCycles * 1.2);
}

TEST(Engine, RunExecutesExactQuantumCounts)
{
    // run() counts quanta as an integer: exact multiples stay exact
    // and fractional durations round up to the covering quantum.
    Engine engine(smallMachine());
    engine.run(3 * 50e-6);
    EXPECT_EQ(engine.stats().quanta.value(), 3.0);
    engine.run(0.4 * 50e-6);
    EXPECT_EQ(engine.stats().quanta.value(), 4.0);
}

TEST(Engine, RunIsDriftFreeOverManyCalls)
{
    // Accumulated floating-point time drifts after many quanta; the
    // quantum count must not (a 1 ms run is exactly 20 quanta, every
    // time, no matter how far the clock has advanced).
    Engine engine(smallMachine());
    const int calls = 2500;
    for (int i = 0; i < calls; ++i)
        engine.run(1e-3);
    EXPECT_EQ(engine.stats().quanta.value(), 20.0 * calls);
}

TEST(Engine, QuantumCountsComeFromIntegerTicks)
{
    // Quantum counts are computed on integer nanosecond ticks, so
    // exact and near-exact quantum multiples never gain or lose a
    // quantum to floating-point representation error, no matter how
    // the duration was produced.
    const Seconds q = 50e-6;
    Engine engine(smallMachine());
    EXPECT_EQ(engine.quantaForDuration(0.0), 0u);
    EXPECT_EQ(engine.quantaForDuration(q), 1u);
    EXPECT_EQ(engine.quantaForDuration(3 * q), 3u);
    // Near-exact from below and above: both snap to the multiple.
    EXPECT_EQ(engine.quantaForDuration(q * (1.0 - 1e-12)), 1u);
    EXPECT_EQ(engine.quantaForDuration(q * (1.0 + 1e-12)), 1u);
    EXPECT_EQ(engine.quantaForDuration(1000 * q * (1.0 - 1e-13)),
              1000u);
    // A fractional remainder still rounds up to the covering quantum.
    EXPECT_EQ(engine.quantaForDuration(2.5 * q), 3u);
    // Accumulated sums that drift below the exact multiple stay exact:
    // 20 * 50us accumulated in floating point is not exactly 1ms.
    Seconds accumulated = 0;
    for (int i = 0; i < 20; ++i)
        accumulated += q;
    EXPECT_EQ(engine.quantaForDuration(accumulated), 20u);
    // Multi-epoch batches (k * epoch) are exact for any k.
    for (std::uint64_t k : {1ull, 7ull, 1000ull, 123456ull})
        EXPECT_EQ(engine.quantaForDuration(
                      static_cast<double>(k) * 1e-3),
                  k * 20u);
}

TEST(Engine, RunQuantaExecutesExactCount)
{
    Engine engine(smallMachine());
    engine.runQuanta(7);
    EXPECT_EQ(engine.stats().quanta.value(), 7.0);
    EXPECT_NEAR(engine.now(), 7 * 50e-6, 1e-12);
}

/** The canonical clock after @p n quanta: one fadd per quantum from 0,
 *  the sequence a fleet grid (and a stepping engine) accumulates. */
Seconds
gridClock(std::uint64_t n, Seconds quantum)
{
    Seconds clock = 0;
    for (std::uint64_t i = 0; i < n; ++i)
        clock += quantum;
    return clock;
}

TEST(Engine, RunToTickElidesTheDrainedTail)
{
    // A short task drains in a few quanta; runToTick steps only those
    // and elides the rest, landing where stepping every quantum lands
    // with the same completion, counters and clock bit for bit.
    const std::uint64_t ticks = 400;
    Engine stepped(smallMachine());
    Engine elided(smallMachine());
    TaskCounters steppedCounters, elidedCounters;
    Seconds steppedFinish = 0, elidedFinish = 0;
    stepped.onCompletion([&](Task &t) {
        steppedCounters = t.counters();
        steppedFinish = t.completionTime();
    });
    elided.onCompletion([&](Task &t) {
        elidedCounters = t.counters();
        elidedFinish = t.completionTime();
    });
    stepped.add(simpleTask(1));
    elided.add(simpleTask(1));

    stepped.runQuanta(ticks);
    elided.runToTick(ticks, gridClock(ticks, elided.quantum()));

    EXPECT_EQ(elided.now(), stepped.now());
    EXPECT_EQ(elided.tickCount(), ticks);
    EXPECT_EQ(elided.taskCount(), 0u);
    EXPECT_EQ(elidedFinish, steppedFinish);
    EXPECT_EQ(elidedCounters.instructions, steppedCounters.instructions);
    EXPECT_EQ(elidedCounters.cycles, steppedCounters.cycles);
    EXPECT_EQ(elidedCounters.stallSharedCycles,
              steppedCounters.stallSharedCycles);
    EXPECT_EQ(elided.machineCounters().l3Accesses,
              stepped.machineCounters().l3Accesses);

    const EngineStats &st = elided.stats();
    EXPECT_GT(st.quanta.value(), 0.0);
    EXPECT_LT(st.quanta.value(), 0.25 * ticks);
    EXPECT_EQ(st.quanta.value() + st.skippedQuanta.value(),
              static_cast<double>(ticks));
    EXPECT_EQ(stepped.stats().skippedQuanta.value(), 0.0);
}

TEST(Engine, RunToTickStepsWhileATaskIsLive)
{
    // Work still running at the target: every quantum is stepped.
    Engine engine(smallMachine());
    engine.add(std::make_unique<workload::EndlessTask>(
        "g", ResourceDemand{}));
    engine.runToTick(30, gridClock(30, engine.quantum()));
    EXPECT_EQ(engine.stats().quanta.value(), 30.0);
    EXPECT_EQ(engine.stats().skippedQuanta.value(), 0.0);
    EXPECT_EQ(engine.now(), gridClock(30, engine.quantum()));
    // Already at the target: a no-op.
    engine.runToTick(30, engine.now());
    EXPECT_EQ(engine.tickCount(), 30u);
}

TEST(Engine, RunToTickOnAnIdleEngineIsOneSkip)
{
    Engine engine(smallMachine());
    const std::uint64_t ticks = 1'000'000;
    const Seconds clock = gridClock(ticks, engine.quantum());
    engine.runToTick(ticks, clock);
    EXPECT_EQ(engine.stats().quanta.value(), 0.0);
    EXPECT_EQ(engine.stats().skippedQuanta.value(),
              static_cast<double>(ticks));
    EXPECT_EQ(engine.now(), clock);
}

TEST(Engine, RunToTickKeepsSteppingForObservers)
{
    // Per-quantum observers must see every quantum, so an idle engine
    // with one registered steps instead of eliding.
    Engine engine(smallMachine());
    unsigned calls = 0;
    engine.onQuantum([&](Seconds, const SharedState &) { ++calls; });
    engine.runToTick(25, gridClock(25, engine.quantum()));
    EXPECT_EQ(calls, 25u);
    EXPECT_EQ(engine.stats().quanta.value(), 25.0);
    EXPECT_EQ(engine.stats().skippedQuanta.value(), 0.0);
    EXPECT_EQ(engine.now(), gridClock(25, engine.quantum()));
}

TEST(Engine, RunToTickRejectsBadTargets)
{
    Engine engine(smallMachine());
    engine.runQuanta(5);
    EXPECT_EXIT(engine.runToTick(4, 4 * engine.quantum()),
                ::testing::ExitedWithCode(1), "behind");
    // A clock a whole quantum off the destination tick.
    EXPECT_EXIT(engine.runToTick(10, 9 * engine.quantum()),
                ::testing::ExitedWithCode(1), "quanta ahead");
    // The check is exact: one ULP off the accumulated grid is refused,
    // on an elided landing and on one with nothing left to elide.
    const Seconds grid10 = gridClock(10, engine.quantum());
    EXPECT_EXIT(engine.runToTick(10, std::nextafter(grid10, 1.0)),
                ::testing::ExitedWithCode(1), "quanta ahead");
    EXPECT_EXIT(engine.runToTick(10, std::nextafter(grid10, 0.0)),
                ::testing::ExitedWithCode(1), "quanta ahead");
    EXPECT_EXIT(engine.runToTick(5, std::nextafter(engine.now(), 1.0)),
                ::testing::ExitedWithCode(1), "quanta ahead");
    engine.runToTick(10, grid10);
    EXPECT_EQ(engine.now(), grid10);
}

TEST(Engine, RejectsNonFiniteDurations)
{
    // NaN passes both the `duration < 0` and the overflow guard;
    // unchecked, run(NaN) asks for ~1.8e19 quanta.
    Engine engine(smallMachine());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(engine.quantaForDuration(nan),
                ::testing::ExitedWithCode(1), "not finite");
    EXPECT_EXIT(engine.run(nan), ::testing::ExitedWithCode(1),
                "not finite");
    EXPECT_EXIT(engine.run(inf), ::testing::ExitedWithCode(1),
                "not finite");
    EXPECT_EXIT(engine.run(-inf), ::testing::ExitedWithCode(1),
                "not finite");
}

TEST(Engine, RejectsFractionalNanosecondQuantum)
{
    // 2.5 ns would silently round to a 3 ns tick and shortchange
    // every run() by 17%; the constructor must refuse instead.
    EXPECT_EXIT(Engine(smallMachine(), FrequencyPolicy::Fixed, 2.5e-9),
                ::testing::ExitedWithCode(1), "whole number");
}

TEST(Engine, ObserverSeesBusySocketNotIdleOne)
{
    // Regression: with sockets > 1, an idle later socket used to
    // overwrite the busy earlier one in the per-quantum observer state
    // (0 >= 0 for a workload with no DRAM traffic). The L3-only load
    // below runs on socket 0; socket 1 stays idle.
    auto cfg = MachineCatalog::get("cascade-5218-dual");
    Engine engine(cfg);
    for (unsigned cpu = 0; cpu < 4; ++cpu) {
        ResourceDemand d;
        d.cpi0 = 0.6;
        d.l2Mpki = 25.0;
        d.l3WorkingSet = 1_MiB;
        d.l3MissBase = 0.0; // all L2 misses hit the L3: no DRAM traffic
        d.mlp = 4.0;
        auto task =
            std::make_unique<workload::EndlessTask>("l3hog", d);
        task->setAffinity({cpu});
        engine.add(std::move(task));
    }
    double observedL3 = 0;
    engine.onQuantum([&](Seconds, const SharedState &s) {
        observedL3 = s.l3Utilization;
    });
    engine.run(0.002);
    EXPECT_GT(observedL3, 0.01);
}

TEST(Engine, RejectsNullTask)
{
    Engine engine(smallMachine());
    EXPECT_EXIT(engine.add(nullptr), ::testing::ExitedWithCode(1),
                "null");
}

TEST(Engine, SmtSiblingInflatesCpi)
{
    auto cfg = smallMachine(2);
    cfg.smtWays = 2;
    // Solo on the machine (no sibling).
    const RunResult solo = runSolo(cfg, [] { return simpleTask(20); });

    Engine engine(cfg);
    TaskCounters counters;
    engine.onCompletion([&](Task &t) {
        if (t.name() == "t")
            counters = t.counters();
    });
    auto sibling = std::make_unique<workload::EndlessTask>(
        "sib", ResourceDemand{});
    sibling->setAffinity({1}); // core 0, way 1
    engine.add(std::move(sibling));
    auto subject = simpleTask(20);
    subject->setAffinity({0}); // core 0, way 0
    Task &task = engine.add(std::move(subject));
    engine.runUntilComplete(task);

    const double soloCpi =
        solo.counters.cycles / solo.counters.instructions;
    const double smtCpi = counters.cycles / counters.instructions;
    EXPECT_GT(smtCpi, soloCpi * 1.5);
}

} // namespace
} // namespace litmus::sim
