/**
 * @file
 * Differential tests for the steady-state fast-forward engine.
 *
 * The fast-forward core must be *bit-identical* to exact quantum
 * stepping: every task counter, every engine statistic, every
 * per-quantum observer sample, and every fleet billing total has to
 * match to the last bit at any seed. These tests run randomized
 * workloads — mixed phase programs, oversubscribed CPUs (slice
 * rotations), probes, SMT, dual sockets, POPPA freezing, completion
 * churn — through both modes and compare everything with exact
 * equality, then check the fast path actually engages (a replay rate
 * of zero would make the equivalence vacuous). Batched replay runs
 * whenever no observer is registered, so its differential drives the
 * engine through runToTick(), runQuanta() and runToCompletion() with
 * none.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/repeated_add.h"
#include "common/rng.h"
#include "core/poppa.h"
#include "poisson_traffic.h"
#include "sim/engine.h"
#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

/** One per-quantum observer sample, captured bit-for-bit. */
struct Sample
{
    Seconds now = 0;
    double l3LatencyNs = 0;
    double memLatencyNs = 0;
    double l3Utilization = 0;
    double memUtilization = 0;
};

/** Everything a differential run captures. */
struct Capture
{
    std::vector<TaskCounters> completions;
    std::vector<Seconds> completionTimes;
    std::vector<TaskCounters> survivors; // live tasks at the end
    std::vector<Sample> samples;
    MachineCounters machine;
    Seconds finalNow = 0;
    double statQuanta = 0;
    double statCompletions = 0;
    double statInstructions = 0;
    double l3UtilMean = 0;
    double memUtilMean = 0;
    double runningMean = 0;
    double freqMean = 0;
    double ffQuanta = 0;
    double solves = 0;
};

Phase
randomPhase(Rng &rng)
{
    Phase p;
    p.name = "p";
    p.instructions = rng.uniform(0.2e6, 30e6);
    p.demand.cpi0 = rng.uniform(0.4, 2.5);
    p.demand.l2Mpki = rng.chance(0.2) ? 0.0 : rng.uniform(0.1, 35.0);
    p.demand.l3WorkingSet =
        static_cast<Bytes>(rng.uniform(64.0 * 1024, 24e6));
    p.demand.l3MissBase = rng.uniform(0.0, 0.9);
    p.demand.mlp = rng.uniform(1.0, 8.0);
    return p;
}

std::unique_ptr<Task>
randomTask(Rng &rng, unsigned hw_threads, int index)
{
    std::vector<Phase> phases;
    const int count = static_cast<int>(rng.range(1, 4));
    for (int i = 0; i < count; ++i)
        phases.push_back(randomPhase(rng));
    const Instructions probe =
        rng.chance(0.3) ? Instructions(2e6) : Task::noProbe;
    // Built by append: GCC 12's -O3 -Wrestrict false-positives on the
    // operator+ temporary chain.
    std::string name = "t";
    name += std::to_string(index);
    auto task =
        std::make_unique<Task>(std::move(name), std::move(phases), probe);
    if (rng.chance(0.5)) {
        // Pin to a small pool so CPUs oversubscribe and slices rotate.
        task->setAffinity({static_cast<unsigned>(
            rng.below(std::max(1u, hw_threads / 2)))});
    }
    return task;
}

/**
 * Run one randomized workload in the given mode and capture every
 * observable output bit-for-bit.
 */
Capture
runWorkload(std::uint64_t seed, bool fast_forward)
{
    Rng rng(seed);

    MachineConfig cfg = rng.chance(0.25)
                            ? MachineCatalog::get("cascade-5218-dual")
                            : MachineCatalog::get("cascade-5218");
    if (cfg.sockets == 1) {
        cfg.cores = static_cast<unsigned>(rng.range(2, 6));
        if (rng.chance(0.3))
            cfg.smtWays = 2;
    }
    const FrequencyPolicy policy =
        rng.chance(0.3) ? FrequencyPolicy::Turbo : FrequencyPolicy::Fixed;

    Engine engine(cfg, policy);
    engine.setFastForward(fast_forward);

    Capture cap;
    engine.onCompletion([&](Task &t) {
        cap.completions.push_back(t.counters());
        cap.completionTimes.push_back(t.completionTime());
    });
    engine.onQuantum([&](Seconds now, const SharedState &s) {
        cap.samples.push_back({now, s.l3LatencyNs, s.memLatencyNs,
                               s.l3Utilization, s.memUtilization});
    });

    // Interleave batches of task launches with run segments whose
    // durations are deliberately awkward (non-multiples of the
    // quantum) so phase boundaries land mid-run.
    const int waves = static_cast<int>(rng.range(2, 4));
    int index = 0;
    for (int wave = 0; wave < waves; ++wave) {
        const int launches = static_cast<int>(rng.range(1, 5));
        for (int i = 0; i < launches; ++i)
            engine.add(randomTask(rng, cfg.hwThreads(), index++));
        engine.run(rng.uniform(0.8e-3, 12e-3));
    }
    while (engine.taskCount() > 0) // drain, one quantum at a time
        engine.runQuanta(1);
    engine.run(1.1e-3); // trailing idle stretch exercises idle replay

    for (Task *t : engine.liveTasks())
        cap.survivors.push_back(t->counters());
    cap.machine = engine.machineCounters();
    cap.finalNow = engine.now();
    const EngineStats &st = engine.stats();
    cap.statQuanta = st.quanta.value();
    cap.statCompletions = st.completions.value();
    cap.statInstructions = st.instructions.value();
    cap.l3UtilMean = st.l3Utilization.accumulator().mean();
    cap.memUtilMean = st.memUtilization.accumulator().mean();
    cap.runningMean = st.runningThreads.accumulator().mean();
    cap.freqMean = st.frequencyGhz.accumulator().mean();
    cap.ffQuanta = st.ffQuanta.value();
    cap.solves = st.solves.value();
    return cap;
}

void
expectSameCounters(const TaskCounters &a, const TaskCounters &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stallSharedCycles, b.stallSharedCycles);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l3Misses, b.l3Misses);
    EXPECT_EQ(a.contextSwitches, b.contextSwitches);
}

void
expectBitIdentical(const Capture &exact, const Capture &fast)
{
    ASSERT_EQ(exact.completions.size(), fast.completions.size());
    for (std::size_t i = 0; i < exact.completions.size(); ++i) {
        expectSameCounters(exact.completions[i], fast.completions[i]);
        EXPECT_EQ(exact.completionTimes[i], fast.completionTimes[i]);
    }
    ASSERT_EQ(exact.survivors.size(), fast.survivors.size());
    for (std::size_t i = 0; i < exact.survivors.size(); ++i)
        expectSameCounters(exact.survivors[i], fast.survivors[i]);

    ASSERT_EQ(exact.samples.size(), fast.samples.size());
    for (std::size_t i = 0; i < exact.samples.size(); ++i) {
        EXPECT_EQ(exact.samples[i].now, fast.samples[i].now);
        EXPECT_EQ(exact.samples[i].l3LatencyNs,
                  fast.samples[i].l3LatencyNs);
        EXPECT_EQ(exact.samples[i].memLatencyNs,
                  fast.samples[i].memLatencyNs);
        EXPECT_EQ(exact.samples[i].l3Utilization,
                  fast.samples[i].l3Utilization);
        EXPECT_EQ(exact.samples[i].memUtilization,
                  fast.samples[i].memUtilization);
    }

    EXPECT_EQ(exact.machine.l3Accesses, fast.machine.l3Accesses);
    EXPECT_EQ(exact.machine.l3Misses, fast.machine.l3Misses);
    EXPECT_EQ(exact.machine.time, fast.machine.time);
    EXPECT_EQ(exact.finalNow, fast.finalNow);
    EXPECT_EQ(exact.statQuanta, fast.statQuanta);
    EXPECT_EQ(exact.statCompletions, fast.statCompletions);
    EXPECT_EQ(exact.statInstructions, fast.statInstructions);
    EXPECT_EQ(exact.l3UtilMean, fast.l3UtilMean);
    EXPECT_EQ(exact.memUtilMean, fast.memUtilMean);
    EXPECT_EQ(exact.runningMean, fast.runningMean);
    EXPECT_EQ(exact.freqMean, fast.freqMean);
}

TEST(EngineFastForward, RandomizedDifferentialBitIdentical)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Capture exact = runWorkload(seed, false);
        const Capture fast = runWorkload(seed, true);
        expectBitIdentical(exact, fast);
        // Exact mode must never replay; fast mode must actually fast-
        // forward a meaningful share of quanta or the equivalence
        // above proves nothing.
        EXPECT_EQ(exact.ffQuanta, 0.0);
        EXPECT_GT(fast.ffQuanta, 0.2 * fast.statQuanta);
        // And fewer quanta solved means the solver left the hot loop.
        EXPECT_LT(fast.solves, exact.solves);
    }
}

TEST(EngineFastForward, SteadyWorkloadReplaysAlmostEverything)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.cores = 8;
    Engine engine(cfg);
    for (int i = 0; i < 8; ++i) {
        ResourceDemand d;
        d.cpi0 = 0.8 + 0.1 * i;
        d.l2Mpki = 2.0 * i;
        d.l3WorkingSet = 2_MiB;
        d.l3MissBase = 0.1;
        d.mlp = 4.0;
        std::string name = "gen";
        name += std::to_string(i);
        engine.add(std::make_unique<Task>(std::move(name), d));
    }
    engine.run(0.5);
    const EngineStats &st = engine.stats();
    EXPECT_EQ(st.quanta.value(), 10000.0);
    // One solve to build the plan, replay from there on.
    EXPECT_GT(st.ffQuanta.value(), 0.99 * st.quanta.value());
    // Simulated time is conserved exactly through the replay path.
    EXPECT_NEAR(engine.now(), 0.5, 1e-9);
}

TEST(EngineFastForward, PoppaSamplingIdenticalAcrossModes)
{
    // POPPA freezes co-runners mid-run — the harshest scheduler-
    // mutation pattern an observer can produce. Estimates and stall
    // overhead must not depend on the engine mode.
    auto runPoppa = [](bool ff) {
        auto cfg = MachineCatalog::get("cascade-5218");
        cfg.cores = 4;
        Engine engine(cfg);
        engine.setFastForward(ff);
        pricing::PoppaSampler sampler(engine,
                                      pricing::PoppaConfig{5e-3, 1e-3});
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 4; ++i) {
            ResourceDemand d;
            d.cpi0 = 1.0;
            d.l2Mpki = 5.0 + i;
            d.l3WorkingSet = 1_MiB;
            d.l3MissBase = 0.2;
            d.mlp = 4.0;
            std::string name = "g";
            name += std::to_string(i);
            Task &t = engine.add(std::make_unique<Task>(std::move(name), d));
            ids.push_back(t.id());
        }
        engine.run(0.08);
        std::vector<double> estimates;
        for (std::uint64_t id : ids)
            estimates.push_back(sampler.estimatedSoloCpi(id));
        return std::tuple(estimates, sampler.stallOverhead(),
                          sampler.windowsOpened(),
                          engine.stats().ffQuanta.value());
    };
    const auto [estExact, stallExact, winExact, ffExact] =
        runPoppa(false);
    const auto [estFast, stallFast, winFast, ffFast] = runPoppa(true);
    EXPECT_EQ(estExact, estFast);
    EXPECT_EQ(stallExact, stallFast);
    EXPECT_EQ(winExact, winFast);
    EXPECT_EQ(ffExact, 0.0);
    EXPECT_GT(ffFast, 0.0);
}

// ---- Batched replay: k steady quanta at once -------------------------

/** The situations batched replay must handle. */
enum class BatchCase
{
    PhaseEndsNearBarrier, ///< phase ends 1 or 2 quanta past a barrier
    BinadeEdgeStarts,     ///< counters start just below binade edges
    NoL2Misses,           ///< l2Mpki == 0: zero-step counters
    Endless,              ///< endless task: every quantum steady
    ProbeClosesMidRun,    ///< batches stop short of the probe's close
    CrowdedCpu,           ///< two tasks on one CPU until one finishes
    DualSocket,           ///< two sockets, sampled in socket order
    CompletionAddsTask,   ///< a completion callback launches work
    MultiThread,          ///< several tasks on their own CPUs
    CrowdedRotations,     ///< crowded CPUs rotating beside free ones
    OpenProbes,           ///< several threads with long probe windows
};

constexpr BatchCase kBatchCases[] = {
    BatchCase::PhaseEndsNearBarrier, BatchCase::BinadeEdgeStarts,
    BatchCase::NoL2Misses,           BatchCase::Endless,
    BatchCase::ProbeClosesMidRun,    BatchCase::CrowdedCpu,
    BatchCase::DualSocket,           BatchCase::CompletionAddsTask,
    BatchCase::MultiThread,          BatchCase::CrowdedRotations,
    BatchCase::OpenProbes,
};

/** How a batch case drives its engine (no observer in any). */
enum class BatchDrive
{
    RunToTick,       ///< runToTick() at fixed barriers
    RunQuanta,       ///< runQuanta() in random chunks
    RunToCompletion, ///< runToCompletion() of a string of subjects
};

constexpr BatchDrive kBatchDrives[] = {
    BatchDrive::RunToTick, BatchDrive::RunQuanta,
    BatchDrive::RunToCompletion};

/** Quanta between the caller's barriers. */
constexpr std::uint64_t kBarrierQuanta = 20;

/** Everything a batched-replay run captures, bit for bit. */
struct BatchCapture
{
    std::vector<TaskCounters> completions;
    std::vector<Seconds> completionTimes;
    std::vector<ProbeCapture> probes;
    std::vector<TaskCounters> survivors;
    MachineCounters machine;
    Seconds now = 0;
    std::uint64_t ticks = 0;
    double quanta = 0;
    std::vector<OnlineStats> averages;
    double ffQuanta = 0;
    double batches = 0;
};

ResourceDemand
randomDemand(Rng &rng, bool l2_misses)
{
    ResourceDemand d;
    d.cpi0 = rng.uniform(0.4, 2.5);
    d.l2Mpki = l2_misses ? rng.uniform(0.1, 35.0) : 0.0;
    d.l3WorkingSet = static_cast<Bytes>(rng.uniform(64.0 * 1024, 24e6));
    d.l3MissBase = rng.uniform(0.0, 0.9);
    d.mlp = rng.uniform(1.0, 8.0);
    return d;
}

/** Instructions one clean quantum retires for @p d running alone:
 *  the first quantum of a lone task is exactly one plan step. */
Instructions
soloStep(const MachineConfig &cfg, const ResourceDemand &d)
{
    Engine probe(cfg);
    Task &t = probe.add(std::make_unique<Task>("s", d));
    probe.runQuanta(1);
    return t.counters().instructions;
}

/** A phase of @p quanta solo steps, nudged by @p slack instructions. */
Phase
stepPhase(const MachineConfig &cfg, const ResourceDemand &d,
          double quanta, Instructions slack)
{
    return Phase{"steady", soloStep(cfg, d) * quanta + slack, d};
}

std::unique_ptr<Task>
programOf(std::vector<Phase> phases, Instructions probe = Task::noProbe)
{
    return std::make_unique<Task>("b", std::move(phases), probe);
}

/** One random phase of between @p lo and @p hi solo quanta. */
Phase
randomStepPhase(Rng &rng, const MachineConfig &cfg, double lo, double hi)
{
    return stepPhase(cfg, randomDemand(rng, !rng.chance(0.2)),
                     rng.uniform(lo, hi), 0);
}

/**
 * Run one batched-replay case on a fresh engine, driving it the given
 * way with no per-quantum observer, and capture every output bit.
 */
BatchCapture
runBatchCase(BatchCase kind, BatchDrive drive, std::uint64_t seed,
             bool fast_forward)
{
    Rng rng(seed * 16 + static_cast<std::uint64_t>(kind));
    const MachineConfig cfg =
        MachineCatalog::get(kind == BatchCase::DualSocket
                                ? "cascade-5218-dual"
                                : "cascade-5218");
    Engine engine(cfg);
    engine.setFastForward(fast_forward);

    BatchCapture cap;
    int relaunches = 0;
    engine.onCompletion([&](Task &t) {
        cap.completions.push_back(t.counters());
        cap.completionTimes.push_back(t.completionTime());
        cap.probes.push_back(t.probe());
        if (kind == BatchCase::CompletionAddsTask && relaunches++ < 3)
            engine.add(programOf({randomStepPhase(rng, cfg, 30, 300)}));
    });

    switch (kind) {
    case BatchCase::PhaseEndsNearBarrier: {
        // The first phase ends 1 or 2 quanta past a barrier, give or
        // take the retire() slack and half a step; later phases end
        // wherever the split quanta leave them.
        const double past = static_cast<double>(rng.range(0, 3));
        const double slackSteps[] = {-0.5, 0.0, 0.5};
        const ResourceDemand d = randomDemand(rng, true);
        const Instructions slack[] = {-2e-6, -1e-6, 0, 1e-6, 2e-6};
        Phase first = stepPhase(
            cfg, d,
            static_cast<double>(kBarrierQuanta * rng.range(1, 6)) + past +
                slackSteps[rng.below(3)],
            slack[rng.below(5)]);
        engine.add(programOf({first, randomStepPhase(rng, cfg, 1, 80),
                              randomStepPhase(rng, cfg, 20, 200)}));
        break;
    }
    case BatchCase::BinadeEdgeStarts: {
        // Every counter starts a few steps below a power of two, so the
        // batch that crosses it changes rounding mid-batch; the long
        // phase's retired count crosses 2^17..2^27 on its own.
        const ResourceDemand d = randomDemand(rng, true);
        auto task = programOf({stepPhase(cfg, d, 2500, 0)});
        const Instructions step = soloStep(cfg, d);
        TaskCounters &tc = task->counters();
        const auto below = [&](int exponent) {
            return std::ldexp(1.0, exponent) -
                   step * static_cast<double>(rng.range(0, 30)) -
                   std::ldexp(1.0, exponent - 52);
        };
        tc.instructions = below(static_cast<int>(rng.range(40, 50)));
        tc.cycles = below(static_cast<int>(rng.range(40, 50)));
        tc.stallSharedCycles = below(static_cast<int>(rng.range(40, 50)));
        tc.l2Misses = std::ldexp(1.0, 30) - 1e-7;
        tc.l3Misses = std::nextafter(std::ldexp(1.0, 20), 0.0);
        engine.add(std::move(task));
        break;
    }
    case BatchCase::NoL2Misses:
        engine.add(programOf(
            {stepPhase(cfg, randomDemand(rng, false), 400.5, 0),
             stepPhase(cfg, randomDemand(rng, false), 300, 0)}));
        break;
    case BatchCase::Endless:
        engine.add(std::make_unique<Task>(
            "endless", randomDemand(rng, !rng.chance(0.3))));
        break;
    case BatchCase::ProbeClosesMidRun: {
        const ResourceDemand d = randomDemand(rng, true);
        const Instructions probe =
            soloStep(cfg, d) * rng.uniform(5, 120);
        engine.add(programOf({stepPhase(cfg, d, 900, 0)}, probe));
        break;
    }
    case BatchCase::CrowdedCpu:
        // Both pinned to CPU 0: slices rotate until the shorter one
        // finishes, then the survivor runs alone.
        for (int i = 0; i < 2; ++i) {
            auto task = programOf({randomStepPhase(rng, cfg, 100, 900)});
            task->setAffinity({0});
            engine.add(std::move(task));
        }
        break;
    case BatchCase::DualSocket:
    case BatchCase::CompletionAddsTask:
        engine.add(programOf({randomStepPhase(rng, cfg, 30, 300),
                              randomStepPhase(rng, cfg, 30, 300)}));
        break;
    case BatchCase::MultiThread: {
        const auto tasks = rng.range(3, 6);
        for (std::int64_t i = 0; i < tasks; ++i) {
            std::vector<Phase> phases;
            const auto count = rng.range(1, 3);
            for (std::int64_t p = 0; p < count; ++p)
                phases.push_back(randomStepPhase(rng, cfg, 30, 300));
            engine.add(programOf(std::move(phases)));
        }
        break;
    }
    case BatchCase::CrowdedRotations:
        // CPUs 0-2 hold two or three pinned tasks each and rotate every
        // slice; two free tasks take CPUs 3 and 4.
        for (unsigned cpu = 0; cpu < 3; ++cpu) {
            const auto tasks = rng.range(2, 3);
            for (std::int64_t i = 0; i < tasks; ++i) {
                auto task =
                    programOf({randomStepPhase(rng, cfg, 200, 900)});
                task->setAffinity({cpu});
                engine.add(std::move(task));
            }
        }
        for (int i = 0; i < 2; ++i)
            engine.add(programOf({randomStepPhase(rng, cfg, 200, 900)}));
        break;
    case BatchCase::OpenProbes: {
        const auto tasks = rng.range(3, 5);
        for (std::int64_t i = 0; i < tasks; ++i) {
            const ResourceDemand d = randomDemand(rng, true);
            const Instructions probe =
                soloStep(cfg, d) * rng.uniform(40, 400);
            engine.add(programOf({stepPhase(cfg, d, 900, 0)}, probe));
        }
        break;
    }
    }

    // The same drive in both modes: its random draws come from its own
    // stream, so the case above is the same whatever the drive.
    const std::uint64_t total = 150 * kBarrierQuanta;
    Rng driveRng(seed * 4 + static_cast<std::uint64_t>(drive));
    switch (drive) {
    case BatchDrive::RunToTick: {
        // The caller's canonical clock, one closed-form barrier at a
        // time.
        Seconds clock = engine.now();
        for (std::uint64_t tick = kBarrierQuanta; tick <= total;
             tick += kBarrierQuanta) {
            clock = addRepeated(clock, engine.quantum(), kBarrierQuanta);
            engine.runToTick(tick, clock);
        }
        break;
    }
    case BatchDrive::RunQuanta:
        while (engine.tickCount() < total)
            engine.runQuanta(
                std::min(total - engine.tickCount(),
                         static_cast<std::uint64_t>(driveRng.range(1, 60))));
        break;
    case BatchDrive::RunToCompletion:
        // Subjects one after another, half of them probed; each lands
        // in cap.completions through the listener.
        while (engine.tickCount() < total) {
            const Phase phase = randomStepPhase(driveRng, cfg, 5, 150);
            const Instructions probe =
                driveRng.chance(0.5)
                    ? soloStep(cfg, phase.demand) * driveRng.uniform(2, 60)
                    : Task::noProbe;
            engine.runToCompletion(programOf({phase}, probe));
        }
        break;
    }

    for (Task *t : engine.liveTasks())
        cap.survivors.push_back(t->counters());
    cap.machine = engine.machineCounters();
    cap.now = engine.now();
    cap.ticks = engine.tickCount();
    const EngineStats &st = engine.stats();
    cap.quanta = st.quanta.value();
    cap.averages = {st.l3Utilization.accumulator(),
                    st.memUtilization.accumulator(),
                    st.runningThreads.accumulator(),
                    st.frequencyGhz.accumulator()};
    cap.ffQuanta = st.ffQuanta.value();
    cap.batches = st.replayBatches.value();
    return cap;
}

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameMachine(const MachineCounters &a, const MachineCounters &b)
{
    EXPECT_EQ(bitsOf(a.l3Accesses), bitsOf(b.l3Accesses));
    EXPECT_EQ(bitsOf(a.l3Misses), bitsOf(b.l3Misses));
    EXPECT_EQ(bitsOf(a.time), bitsOf(b.time));
}

void
expectBatchIdentical(const BatchCapture &exact, const BatchCapture &fast)
{
    ASSERT_EQ(exact.completions.size(), fast.completions.size());
    for (std::size_t i = 0; i < exact.completions.size(); ++i) {
        expectSameCounters(exact.completions[i], fast.completions[i]);
        EXPECT_EQ(bitsOf(exact.completionTimes[i]),
                  bitsOf(fast.completionTimes[i]));
        const ProbeCapture &pe = exact.probes[i];
        const ProbeCapture &pf = fast.probes[i];
        EXPECT_EQ(pe.complete, pf.complete);
        expectSameCounters(pe.taskAtEnd, pf.taskAtEnd);
        expectSameMachine(pe.machineAtEnd, pf.machineAtEnd);
    }
    ASSERT_EQ(exact.survivors.size(), fast.survivors.size());
    for (std::size_t i = 0; i < exact.survivors.size(); ++i)
        expectSameCounters(exact.survivors[i], fast.survivors[i]);
    expectSameMachine(exact.machine, fast.machine);
    EXPECT_EQ(bitsOf(exact.now), bitsOf(fast.now));
    EXPECT_EQ(exact.ticks, fast.ticks);
    EXPECT_EQ(exact.quanta, fast.quanta);
    ASSERT_EQ(exact.averages.size(), fast.averages.size());
    for (std::size_t i = 0; i < exact.averages.size(); ++i) {
        const OnlineStats &a = exact.averages[i];
        const OnlineStats &b = fast.averages[i];
        EXPECT_EQ(a.count(), b.count()) << "average " << i;
        EXPECT_EQ(bitsOf(a.sum()), bitsOf(b.sum())) << "average " << i;
        EXPECT_EQ(bitsOf(a.mean()), bitsOf(b.mean())) << "average " << i;
        EXPECT_EQ(bitsOf(a.variance()), bitsOf(b.variance()))
            << "average " << i;
        EXPECT_EQ(bitsOf(a.min()), bitsOf(b.min())) << "average " << i;
        EXPECT_EQ(bitsOf(a.max()), bitsOf(b.max())) << "average " << i;
    }
}

TEST(EngineFastForward, BatchedReplayBitIdentical)
{
    for (const BatchCase kind : kBatchCases) {
        for (const BatchDrive drive : kBatchDrives) {
            double batches = 0;
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "case " << static_cast<int>(kind)
                             << " drive " << static_cast<int>(drive)
                             << " seed " << seed);
                const BatchCapture exact =
                    runBatchCase(kind, drive, seed, false);
                const BatchCapture fast =
                    runBatchCase(kind, drive, seed, true);
                expectBatchIdentical(exact, fast);
                EXPECT_EQ(exact.ffQuanta, 0.0);
                EXPECT_EQ(exact.batches, 0.0);
                EXPECT_GT(fast.ffQuanta, 0.0);
                batches += fast.batches;
            }
            // Every case batches under every drive: thread count,
            // socket count, a crowded CPU and an open probe no longer
            // rule it out.
            EXPECT_GT(batches, 0.0) << "case " << static_cast<int>(kind)
                                    << " drive "
                                    << static_cast<int>(drive);
        }
    }
}

// ---- The replay horizon: steadyThrough() ------------------------------

/** One task of a horizon case, built once per engine. */
struct HorizonTask
{
    /** The phase list; empty means an endless task at `endless`. */
    std::vector<Phase> phases;
    ResourceDemand endless;
    Instructions probe = Task::noProbe;
    /** Pinned to CPU 0, so two such tasks crowd it. */
    bool pinned = false;
};

std::unique_ptr<Task>
buildTask(const HorizonTask &spec)
{
    auto task = spec.phases.empty()
                    ? std::make_unique<Task>("endless", spec.endless)
                    : programOf(spec.phases, spec.probe);
    if (spec.pinned)
        task->setAffinity({0});
    return task;
}

HorizonTask
randomHorizonTask(Rng &rng, const MachineConfig &cfg, bool pinned)
{
    HorizonTask spec;
    spec.pinned = pinned;
    if (rng.chance(0.2)) {
        spec.endless = randomDemand(rng, !rng.chance(0.3));
        return spec;
    }
    const auto count = rng.range(1, 4);
    for (std::int64_t i = 0; i < count; ++i)
        spec.phases.push_back(randomStepPhase(rng, cfg, 0.5, 300));
    if (rng.chance(0.4))
        spec.probe =
            soloStep(cfg, spec.phases.front().demand) * rng.uniform(2, 60);
    return spec;
}

TEST(EngineHorizon, RunningToTheHorizonChangesNothingVisible)
{
    // After every landing the engine names the tick it is sure to
    // replay through. Running to it must add no full step, end no
    // phase and complete no task, and a twin stepping the same tasks
    // one exact quantum at a time must match bit for bit throughout.
    // Every third seed pins its tasks to CPU 0, which crowds it: there
    // the horizon also stops short of the next possible slice expiry.
    const MachineConfig cfg = MachineCatalog::get("cascade-5218");
    std::uint64_t ahead = 0;        // landings whose horizon lay ahead
    std::uint64_t crowdedAhead = 0; // ... with a crowded CPU
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        const bool crowd = seed % 3 == 0;
        Engine lazy(cfg);
        Engine twin(cfg);
        twin.setFastForward(false);
        std::vector<TaskCounters> lazyDone, twinDone;
        std::vector<Seconds> lazyTimes, twinTimes;
        lazy.onCompletion([&](Task &t) {
            lazyDone.push_back(t.counters());
            lazyTimes.push_back(t.completionTime());
        });
        twin.onCompletion([&](Task &t) {
            twinDone.push_back(t.counters());
            twinTimes.push_back(t.completionTime());
        });
        const auto launch = [&] {
            const HorizonTask spec = randomHorizonTask(rng, cfg, crowd);
            lazy.add(buildTask(spec));
            twin.add(buildTask(spec));
        };
        launch();
        if (crowd)
            launch();

        Seconds clock = 0;
        std::uint64_t tick = 0;
        const auto advance = [&](std::uint64_t to) {
            clock = addRepeated(clock, lazy.quantum(), to - tick);
            lazy.runToTick(to, clock);
            for (; tick < to; ++tick)
                twin.runQuanta(1);
        };
        const auto phaseIndices = [](Engine &engine) {
            std::vector<std::size_t> out;
            for (const Task *t : engine.liveTasks())
                out.push_back(t->phaseIndex());
            return out;
        };
        for (int landing = 0; landing < 150; ++landing) {
            advance(tick + static_cast<std::uint64_t>(rng.range(1, 40)));
            if (rng.chance(lazy.taskCount() == 0 ? 0.5 : 0.04))
                launch();
            const std::uint64_t horizon = lazy.steadyThrough();
            ASSERT_GE(horizon, tick);
            // Unbounded while no CPU is crowded.
            const std::uint64_t quiet = lazy.scheduler().quietTicks();
            const bool crowded =
                quiet != std::numeric_limits<std::uint64_t>::max();
            ASSERT_LE(horizon - tick, quiet);
            if (horizon == tick)
                continue;
            ++ahead;
            if (crowded)
                ++crowdedAhead;
            // An endless phase has no end; go a bounded way into it.
            const std::uint64_t to = std::min(horizon, tick + 400);
            const EngineStats &st = lazy.stats();
            const double fullSteps = st.quanta.value() - st.ffQuanta.value();
            const std::size_t done = lazyDone.size();
            const std::vector<std::size_t> phases = phaseIndices(lazy);
            advance(to);
            ASSERT_EQ(st.quanta.value() - st.ffQuanta.value(), fullSteps)
                << "landing " << landing;
            ASSERT_EQ(lazyDone.size(), done) << "landing " << landing;
            ASSERT_EQ(phaseIndices(lazy), phases) << "landing " << landing;

            const std::vector<Task *> lazyLive = lazy.liveTasks();
            const std::vector<Task *> twinLive = twin.liveTasks();
            ASSERT_EQ(lazyLive.size(), twinLive.size());
            for (std::size_t i = 0; i < lazyLive.size(); ++i)
                expectSameCounters(lazyLive[i]->counters(),
                                   twinLive[i]->counters());
        }
        ASSERT_EQ(lazyDone.size(), twinDone.size());
        for (std::size_t i = 0; i < lazyDone.size(); ++i) {
            expectSameCounters(lazyDone[i], twinDone[i]);
            EXPECT_EQ(bitsOf(lazyTimes[i]), bitsOf(twinTimes[i]));
        }
        expectSameMachine(lazy.machineCounters(), twin.machineCounters());
        EXPECT_EQ(bitsOf(lazy.now()), bitsOf(twin.now()));
        EXPECT_EQ(phaseIndices(lazy), phaseIndices(twin));
    }
    EXPECT_GT(ahead, 500u);
    EXPECT_GT(crowdedAhead, 50u);
}

TEST(EngineHorizon, DueTickThatRotatesNothingFreesThePlan)
{
    // CPU 0 starts a slice at tick 0 and drains before it expires, so
    // the scheduler's next due tick stays at that expiry while CPU 1's
    // slice, started later, runs on. The due tick rotates nothing and
    // keeps the plan; the horizon must then move on to CPU 1's expiry
    // instead of leaving the plan to per-quantum replay, with every bit
    // equal to a twin stepping exactly.
    const MachineConfig cfg = MachineCatalog::get("cascade-5218");
    Engine lazy(cfg);
    Engine twin(cfg);
    twin.setFastForward(false);
    Rng rng(7);
    const ResourceDemand d = randomDemand(rng, true);
    const auto launch = [&](double quanta, unsigned cpu) {
        for (Engine *engine : {&lazy, &twin}) {
            auto task = programOf({stepPhase(cfg, d, quanta, 0)});
            task->setAffinity({cpu});
            engine->add(std::move(task));
        }
    };
    launch(20, 0);   // runs first on CPU 0 and drains it early
    launch(5000, 0); // waits behind it
    launch(5000, 1);
    Seconds clock = 0;
    std::uint64_t tick = 0;
    const auto advance = [&](std::uint64_t to) {
        clock = addRepeated(clock, lazy.quantum(), to - tick);
        lazy.runToTick(to, clock);
        for (; tick < to; ++tick)
            twin.runQuanta(1);
    };
    advance(30);
    launch(5000, 1); // crowds CPU 1: its slice expires at tick 131
    advance(60);
    ASSERT_EQ(lazy.taskCount(), 3u); // the short task is done

    // The bound still names CPU 0's stale expiry, tick 101.
    ASSERT_EQ(lazy.scheduler().quietTicks(), 101u - 60u - 1u);
    ASSERT_LT(lazy.steadyThrough(), 101u);
    const EngineStats &st = lazy.stats();
    const double fullSteps = st.quanta.value() - st.ffQuanta.value();
    advance(102); // through the due tick, which rotates nothing
    const std::uint64_t horizon = lazy.steadyThrough();
    EXPECT_GE(horizon, 130u);
    EXPECT_LE(horizon - tick, lazy.scheduler().quietTicks());
    advance(horizon);
    EXPECT_EQ(st.quanta.value() - st.ffQuanta.value(), fullSteps);
    EXPECT_GE(st.replayBatches.value(), 2.0);

    const std::vector<Task *> lazyLive = lazy.liveTasks();
    const std::vector<Task *> twinLive = twin.liveTasks();
    ASSERT_EQ(lazyLive.size(), twinLive.size());
    for (std::size_t i = 0; i < lazyLive.size(); ++i)
        expectSameCounters(lazyLive[i]->counters(),
                           twinLive[i]->counters());
    expectSameMachine(lazy.machineCounters(), twin.machineCounters());
    EXPECT_EQ(bitsOf(lazy.now()), bitsOf(twin.now()));
}

class ClusterDifferential : public ::testing::TestWithParam<Seconds>
{
};

TEST_P(ClusterDifferential, TotalsIdenticalAcrossModes)
{
    // The whole fleet path: Poisson arrivals, warm pools, keep-alive
    // expiry, epoch batching. Billing and serving totals must be
    // bit-identical between the exact-quantum oracle and the default
    // loop (engine fast-forward plus the cluster's batched idle-epoch
    // stepping and idle-machine elision). The second epoch
    // parameter is deliberately not a whole number of quanta: each
    // epoch then advances more than cfg.epoch, and the idle batch must
    // be computed against the covering-quantum span or fast mode
    // overshoots arrivals that exact mode dispatches earlier.
    auto runFleet = [](bool exact, Seconds epoch) {
        cluster::ClusterConfig cfg;
        cfg.fleet = {{"cascade-5218", 2}};
        cfg.policy = cluster::DispatchPolicy::WarmthAware;
        cfg.traffic = test::poissonTraffic(400.0, 300);
        cfg.keepAlive = 0.05; // short: exercises expiry sweeps
        cfg.seed = 11;
        cfg.threads = 1;
        cfg.epoch = epoch;
        cfg.exactQuantum = exact;
        cluster::Cluster fleet(cfg);
        return fleet.run();
    };
    const cluster::FleetReport exact = runFleet(true, GetParam());
    const cluster::FleetReport fast = runFleet(false, GetParam());
    EXPECT_EQ(exact.billedCpuSeconds, fast.billedCpuSeconds);
    EXPECT_EQ(exact.commercialUsd, fast.commercialUsd);
    EXPECT_EQ(exact.litmusUsd, fast.litmusUsd);
    EXPECT_EQ(exact.completions, fast.completions);
    EXPECT_EQ(exact.coldStarts, fast.coldStarts);
    EXPECT_EQ(exact.warmStarts, fast.warmStarts);
    EXPECT_EQ(exact.rejectedMemory, fast.rejectedMemory);
    EXPECT_EQ(exact.makespan, fast.makespan);
    EXPECT_EQ(exact.meanLatency, fast.meanLatency);
    // The oracle steps every machine through every grid barrier.
    EXPECT_EQ(exact.sched.idleQuantaSkipped, 0u);
    EXPECT_EQ(exact.sched.barriersElided, 0u);
    ASSERT_EQ(exact.machines.size(), fast.machines.size());
    for (std::size_t i = 0; i < exact.machines.size(); ++i) {
        EXPECT_EQ(exact.machines[i].billedCpuSeconds,
                  fast.machines[i].billedCpuSeconds);
        EXPECT_EQ(exact.machines[i].dispatched,
                  fast.machines[i].dispatched);
        EXPECT_EQ(exact.machines[i].quanta, fast.machines[i].quanta);
    }
}

INSTANTIATE_TEST_SUITE_P(Epochs, ClusterDifferential,
                         ::testing::Values(1e-3, 130e-6));

TEST(EngineFastForward, ExactQuantumFlagDisablesReplay)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.cores = 2;
    Engine engine(cfg);
    engine.setFastForward(false);
    EXPECT_FALSE(engine.fastForward());
    engine.add(std::make_unique<Task>("g", ResourceDemand{}));
    engine.run(0.01);
    EXPECT_EQ(engine.stats().ffQuanta.value(), 0.0);

    // Re-enabling picks the fast path back up mid-run.
    engine.setFastForward(true);
    engine.run(0.01);
    EXPECT_GT(engine.stats().ffQuanta.value(), 0.0);
}

} // namespace
} // namespace litmus::sim
