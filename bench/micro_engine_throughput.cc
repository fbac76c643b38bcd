/**
 * @file
 * Engine-throughput microbenchmark: steady-state fast-forward vs.
 * exact quantum stepping.
 *
 * Two scenarios, each timed in both modes:
 *
 *  - steady: a fully loaded machine running constant-demand traffic
 *    generators (the shape of every long Table 1 phase), where the
 *    fast-forward engine should replay essentially every quantum;
 *  - fleet: the fig22 serving path (open-loop Poisson traffic, warm
 *    pools, epoch barriers) on a small fleet, where arrivals, slice
 *    rotations, and completions keep ending steady stretches. The
 *    fleet runs two ways: the exact-quantum oracle (every machine
 *    stepped through every epoch, fast-forward off) and the default
 *    event-driven core (idle machines never stepped, busy ones only
 *    until they drain) — whose FleetReports must be bit-identical;
 *  - sparse: the same fleet at a low arrival rate, mostly idle —
 *    the event core's home turf, where the oracle still marches
 *    every machine through every quantum and the event batches
 *    jump the fleet clock between arrivals. This is where the event
 *    scheduler must land within 2x of the steady-state single-machine
 *    fast-forward throughput;
 *  - single_thread_barriers: one long-phase task driven through
 *    runToTick() at 1 ms barriers, the shape of a busy machine in a
 *    mostly idle fleet, where the engine replays each barrier's steady
 *    quanta in one closed-form batch. Timed batched, replaying one
 *    quantum at a time (runQuanta) and with fast-forward off; all
 *    three must end with bit-identical task and machine counters and
 *    clock;
 *  - crowded: pricing_heavy's pooled shape (Fig. 17), 320 churning
 *    memory-intensive co-runners on CPUs 0-15 of a cascade-5218, run
 *    for a fixed simulated time (twice the steady time) with
 *    fast-forward on and off. Every CPU queues ~20 tasks, so slice
 *    rotation and completion rebalancing, not the solver alone, set
 *    the pace. Both runs must end with bit-identical task and machine
 *    counters; the bench reports the rotation count.
 *
 * Reports simulated-seconds-per-wall-second for every mode, solver
 * calls, memo hits, and executed / replayed / idle-skipped quanta,
 * and writes the same numbers to a machine-readable
 * bench-out/BENCH_engine.json so the perf trajectory is tracked run
 * over run.
 *
 * Always enforced (CI bench-smoke, sanitizer job included): quantum
 * accounting (executed + idle-skipped) must conserve total simulated
 * time to 1e-9, every fleet mode must cover identical quantum counts,
 * the event-vs-exact FleetReports must be bit-identical, and the three
 * single-thread barrier runs must agree in every counter bit, with
 * batching engaged only where runToTick() drives a fast-forwarding
 * engine, and the two crowded runs must agree in every counter bit.
 * The
 * >= 5x steady and >= 2x fleet speedup floors — and the event
 * scheduler landing within 2x of the steady-state single-machine
 * fast-forward throughput — are asserted unless LITMUS_BENCH_STRICT=0
 * (smoke/sanitizer runs, where wall-clock ratios are not meaningful).
 *
 * Knobs: LITMUS_ENGINE_BENCH_SECONDS (steady simulated seconds,
 * default 1.0; the barrier scenario simulates 20x that, the crowded
 * one 2x),
 * LITMUS_FLEET_INVOCATIONS (per machine, default 625),
 * LITMUS_FLEET_RATE (per machine, default 500),
 * LITMUS_SPARSE_INVOCATIONS (per machine, default 200),
 * LITMUS_SPARSE_RATE (per machine, default 20), LITMUS_BENCH_JSON
 * (output path, default bench-out/BENCH_engine.json),
 * LITMUS_BENCH_STRICT.
 */

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/repeated_add.h"
#include "scenario/traffic_model.h"
#include "workload/invoker.h"
#include "workload/program.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

namespace
{

/** Wall-clock seconds elapsed while running @p fn. */
template <typename Fn>
double
wallSeconds(Fn &&fn)
{
    // LITMUS-LINT-ALLOW(wall-clock): measuring wall time IS this bench's purpose
    const auto start = std::chrono::steady_clock::now();
    fn();
    // LITMUS-LINT-ALLOW(wall-clock): timing only — never feeds simulated results
    const auto end = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - start).count();
}

double
envDouble(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || parsed <= 0)
        fatal("envDouble: ", name, " must be a positive number, got '",
              value, "'");
    return parsed;
}

/** One mode's measurement. */
struct ModeResult
{
    double wall = 0;          // wall-clock seconds
    double simSeconds = 0;    // simulated seconds advanced
    double quanta = 0;        // quanta executed
    double ffQuanta = 0;      // quanta advanced by replay
    double skipped = 0;       // idle quanta elided (event core)
    double solves = 0;        // contention solver invocations
    double memoHits = 0;      // solves served from the memo
    double simPerWall() const { return wall > 0 ? simSeconds / wall : 0; }
    /** Quanta covered on the canonical grid, stepped or not. */
    double covered() const { return quanta + skipped; }
};

void
accumulateEngine(ModeResult &r, const sim::Engine &engine)
{
    const sim::EngineStats &st = engine.stats();
    r.quanta += st.quanta.value();
    r.ffQuanta += st.ffQuanta.value();
    r.skipped += st.skippedQuanta.value();
    r.solves += st.solves.value();
    r.memoHits += st.solveMemoHits.value();
}

/**
 * Quantum accounting must conserve simulated time: the clock an
 * engine reached has to equal its covered quantum count (executed —
 * replayed or not — plus idle-skipped) times the quantum.
 */
void
checkConservation(const char *scenario, const sim::Engine &engine,
                  Seconds quantum)
{
    const double expected = (engine.stats().quanta.value() +
                             engine.stats().skippedQuanta.value()) *
                            quantum;
    // Relative 1e-9 (with a 1 ns floor): the engine clock accumulates
    // one addition per quantum, whose representation error grows with
    // the run length — while a real accounting bug (a skipped or
    // double-counted quantum) is a whole 50 us, many orders above the
    // bound at any run length.
    const double bound = 1e-9 * std::max(1.0, expected);
    const double drift = std::abs(engine.now() - expected);
    if (drift > bound)
        fatal("micro_engine_throughput: ", scenario,
              " quantum accounting drifted ", drift,
              " simulated seconds (", engine.stats().quanta.value(),
              " quanta, ff ", engine.stats().ffQuanta.value(),
              ", skipped ", engine.stats().skippedQuanta.value(), ")");
}

ModeResult
runSteady(bool fast_forward, Seconds sim_seconds)
{
    const Seconds quantum = 50e-6;
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    engine.setFastForward(fast_forward);

    // Every hardware thread busy with a distinct constant demand — the
    // long-phase steady state that dominates Table 1 bodies.
    for (unsigned i = 0; i < cfg.hwThreads(); ++i) {
        sim::ResourceDemand d;
        d.cpi0 = 0.5 + 0.05 * (i % 8);
        d.l2Mpki = static_cast<double>(i % 16);
        d.l3WorkingSet = (1 + i % 4) * 1_MiB;
        d.l3MissBase = 0.1 + 0.02 * (i % 5);
        d.mlp = 4.0;
        std::string name = "gen";
        name += std::to_string(i);
        engine.add(std::make_unique<workload::EndlessTask>(
            std::move(name), d));
    }

    ModeResult r;
    r.wall = wallSeconds([&] { engine.run(sim_seconds); });
    r.simSeconds = engine.now();
    accumulateEngine(r, engine);
    checkConservation("steady", engine, quantum);
    return r;
}

/** A barrier-driven run plus every bit its engine must agree on. */
struct BarrierRun
{
    ModeResult mode;
    sim::TaskCounters task;
    sim::MachineCounters machine;
    double batches = 0;
};

/** How the barrier scenario drives its engine. */
enum class BarrierDrive
{
    Exact,   ///< fast-forward off, runToTick()
    Replay,  ///< fast-forward on, runQuanta(): one replay per quantum
    Batched, ///< fast-forward on, runToTick(): batched replay
};

BarrierRun
runSingleThreadBarriers(BarrierDrive drive, Seconds sim_seconds)
{
    const Seconds quantum = 50e-6;
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    engine.setFastForward(drive != BarrierDrive::Exact);

    // One phase that outlasts the run, so every barrier after the
    // first is steady.
    sim::ResourceDemand d;
    d.cpi0 = 0.9;
    d.l2Mpki = 6.0;
    d.l3WorkingSet = 2_MiB;
    d.l3MissBase = 0.15;
    d.mlp = 4.0;
    const sim::Task &task = engine.add(std::make_unique<workload::ProgramTask>(
        "long", workload::PhaseProgram({{"body", 1e15, d}})));

    // The caller's canonical clock, advanced one barrier at a time as
    // the cluster's event core does.
    const std::uint64_t perBarrier = engine.quantaForDuration(1e-3);
    const std::uint64_t barriers =
        engine.quantaForDuration(sim_seconds) / perBarrier;
    BarrierRun r;
    r.mode.wall = wallSeconds([&] {
        Seconds clock = engine.now();
        for (std::uint64_t b = 1; b <= barriers; ++b) {
            clock = addRepeated(clock, engine.quantum(), perBarrier);
            if (drive == BarrierDrive::Replay)
                engine.runQuanta(perBarrier);
            engine.runToTick(b * perBarrier, clock);
        }
    });
    r.mode.simSeconds = engine.now();
    accumulateEngine(r.mode, engine);
    checkConservation("single_thread_barriers", engine, quantum);
    r.task = task.counters();
    r.machine = engine.machineCounters();
    r.batches = engine.stats().replayBatches.value();
    return r;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/** Every task counter bit equal. */
bool
sameBits(const sim::TaskCounters &a, const sim::TaskCounters &b)
{
    return sameBits(a.instructions, b.instructions) &&
           sameBits(a.cycles, b.cycles) &&
           sameBits(a.stallSharedCycles, b.stallSharedCycles) &&
           sameBits(a.l2Misses, b.l2Misses) &&
           sameBits(a.l3Misses, b.l3Misses) &&
           a.contextSwitches == b.contextSwitches;
}

/** Every machine counter bit equal. */
bool
sameBits(const sim::MachineCounters &a, const sim::MachineCounters &b)
{
    return sameBits(a.l3Accesses, b.l3Accesses) &&
           sameBits(a.l3Misses, b.l3Misses) && sameBits(a.time, b.time);
}

/** fatal() unless both runs hold the same bits in every counter. */
void
checkBarrierRunsIdentical(const BarrierRun &exact, const BarrierRun &fast)
{
    if (!sameBits(exact.task, fast.task) ||
        !sameBits(exact.machine, fast.machine) ||
        exact.mode.quanta != fast.mode.quanta)
        fatal("micro_engine_throughput: single-thread barrier runs "
              "diverged from exact stepping");
}

/** A crowded run plus every bit its engine must agree on. */
struct CrowdedRun
{
    ModeResult mode;
    /** Counters of each completed task, in completion order, then of
     *  each task still live at the end. */
    std::vector<sim::TaskCounters> tasks;
    sim::MachineCounters machine;
    double completions = 0;
    /** Slice rotations: every one switches in a different task. */
    double rotations = 0;
};

CrowdedRun
runCrowded(bool fast_forward, Seconds sim_seconds)
{
    const Seconds quantum = 50e-6;
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    engine.setFastForward(fast_forward);

    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::Pooled;
    icfg.targetCount = 320;
    for (unsigned cpu = 0; cpu < 16; ++cpu)
        icfg.cpuPool.push_back(cpu);
    icfg.functionPool = workload::memoryIntensiveSet();
    icfg.seed = 7;
    workload::Invoker invoker(engine, icfg);

    CrowdedRun r;
    engine.onCompletion([&](sim::Task &task) {
        r.tasks.push_back(task.counters());
        invoker.handleCompletion(task); // launches a replacement
    });
    invoker.start();
    r.mode.wall = wallSeconds([&] { engine.run(sim_seconds); });
    r.mode.simSeconds = engine.now();
    accumulateEngine(r.mode, engine);
    checkConservation("crowded", engine, quantum);
    r.completions = static_cast<double>(r.tasks.size());
    for (const sim::Task *task : engine.liveTasks())
        r.tasks.push_back(task->counters());
    for (const sim::TaskCounters &tc : r.tasks)
        r.rotations += static_cast<double>(tc.contextSwitches);
    r.machine = engine.machineCounters();
    return r;
}

/** fatal() unless both crowded runs hold the same bits in every counter. */
void
checkCrowdedRunsIdentical(const CrowdedRun &exact, const CrowdedRun &fast)
{
    bool identical = exact.tasks.size() == fast.tasks.size() &&
                     sameBits(exact.machine, fast.machine) &&
                     exact.mode.quanta == fast.mode.quanta;
    for (std::size_t i = 0; identical && i < exact.tasks.size(); ++i)
        identical = sameBits(exact.tasks[i], fast.tasks[i]);
    if (!identical)
        fatal("micro_engine_throughput: crowded runs diverged between "
              "fast-forward and exact stepping");
}

ModeResult
runFleet(bool fast_forward, std::uint64_t per_machine, double rate,
         cluster::FleetReport *report_out = nullptr)
{
    const Seconds quantum = 50e-6;
    const unsigned machines = 4;
    scenario::TrafficSpec traffic;
    traffic.arrivalsPerSecond = rate * machines;
    traffic.invocations = per_machine * machines;
    const auto poisson = scenario::makeTrafficModel(traffic);
    cluster::ClusterConfig cfg;
    cfg.fleet = {{"cascade-5218", machines}};
    cfg.policy = cluster::DispatchPolicy::WarmthAware;
    cfg.traffic = poisson.get();
    cfg.keepAlive = 10.0;
    cfg.seed = 7;
    cfg.threads = 1; // serial: the wall-clock ratio measures the
                     // engines, not the host's thread scheduling
    cfg.exactQuantum = !fast_forward; // the oracle

    cluster::Cluster fleet(cfg);
    ModeResult r;
    r.wall = wallSeconds([&] { fleet.run(); });
    for (unsigned m = 0; m < machines; ++m) {
        const sim::Engine &engine = fleet.engine(m);
        r.simSeconds += engine.now();
        accumulateEngine(r, engine);
        checkConservation("fleet", engine, quantum);
    }
    if (report_out)
        *report_out = fleet.report();
    return r;
}

void
addRow(TextTable &table, const std::string &scenario,
       const std::string &mode, const ModeResult &r)
{
    table.addRow({scenario, mode, TextTable::num(r.simPerWall(), 0),
                  TextTable::num(r.quanta, 0),
                  TextTable::num(r.ffQuanta, 0),
                  TextTable::num(r.skipped, 0),
                  TextTable::num(r.solves, 0),
                  TextTable::num(r.memoHits, 0)});
}

void
jsonScenario(bench::BenchJson &json, const std::string &name,
             const ModeResult &exact, const ModeResult &fast)
{
    json.metric(name, "sim_per_wall_exact", exact.simPerWall());
    json.metric(name, "sim_per_wall_ff", fast.simPerWall());
    json.metric(name, "speedup",
                exact.wall > 0 && fast.wall > 0
                    ? exact.wall / fast.wall
                    : 0);
    json.metric(name, "quanta", fast.quanta);
    json.metric(name, "ff_quanta", fast.ffQuanta);
    json.metric(name, "solves_exact", exact.solves);
    json.metric(name, "solves_ff", fast.solves);
    json.metric(name, "solve_memo_hits", fast.memoHits);
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Engine throughput: steady-state fast-forward vs. "
                "exact quantum stepping");

    const double steadySeconds =
        envDouble("LITMUS_ENGINE_BENCH_SECONDS", 1.0);
    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 625);
    // Same parser as fig22_fleet_scaling so the shared knob means the
    // same workload in both benches.
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);
    const char *strictEnv = std::getenv("LITMUS_BENCH_STRICT");
    const bool strict = !strictEnv || std::string(strictEnv) != "0";

    // Best-of-N wall times: the simulation is deterministic, so the
    // fastest repetition is the least host-noise-polluted measurement.
    const int repetitions = strict ? 3 : 1;
    const auto bestOf = [&](auto &&run) {
        auto best = run();
        for (int i = 1; i < repetitions; ++i) {
            auto r = run();
            if (r.wall < best.wall)
                best = r;
        }
        return best;
    };
    const ModeResult steadyExact =
        bestOf([&] { return runSteady(false, steadySeconds); });
    const ModeResult steadyFast =
        bestOf([&] { return runSteady(true, steadySeconds); });
    cluster::FleetReport exactReport, eventReport;
    const ModeResult fleetExact = bestOf([&] {
        return runFleet(false, perMachine, ratePerMachine, &exactReport);
    });
    const ModeResult fleetEvent = bestOf([&] {
        return runFleet(true, perMachine, ratePerMachine, &eventReport);
    });
    const std::uint64_t sparseInv =
        pricing::envOr("LITMUS_SPARSE_INVOCATIONS", 200);
    const double sparseRate = pricing::envOr("LITMUS_SPARSE_RATE", 20);
    cluster::FleetReport sparseExactReport, sparseEventReport;
    const ModeResult sparseExact = bestOf([&] {
        return runFleet(false, sparseInv, sparseRate, &sparseExactReport);
    });
    const ModeResult sparseEvent = bestOf([&] {
        return runFleet(true, sparseInv, sparseRate, &sparseEventReport);
    });
    const Seconds barrierSeconds = 20 * steadySeconds;
    const auto bestBarrierRun = [&](BarrierDrive drive) {
        BarrierRun best = runSingleThreadBarriers(drive, barrierSeconds);
        for (int i = 1; i < repetitions; ++i) {
            BarrierRun r = runSingleThreadBarriers(drive, barrierSeconds);
            if (r.mode.wall < best.mode.wall)
                best = r;
        }
        return best;
    };
    const BarrierRun barrierExact = bestBarrierRun(BarrierDrive::Exact);
    const BarrierRun barrierReplay = bestBarrierRun(BarrierDrive::Replay);
    const BarrierRun barrierBatched = bestBarrierRun(BarrierDrive::Batched);
    const Seconds crowdedSeconds = 2 * steadySeconds;
    const auto bestCrowdedRun = [&](bool fast_forward) {
        CrowdedRun best = runCrowded(fast_forward, crowdedSeconds);
        for (int i = 1; i < repetitions; ++i) {
            CrowdedRun r = runCrowded(fast_forward, crowdedSeconds);
            if (r.mode.wall < best.mode.wall)
                best = std::move(r);
        }
        return best;
    };
    const CrowdedRun crowdedExact = bestCrowdedRun(false);
    const CrowdedRun crowdedFast = bestCrowdedRun(true);
    checkCrowdedRunsIdentical(crowdedExact, crowdedFast);
    checkBarrierRunsIdentical(barrierExact, barrierReplay);
    checkBarrierRunsIdentical(barrierExact, barrierBatched);
    // Only runToTick() batches, and it must on this steady shape.
    if (barrierReplay.batches != 0 || !(barrierBatched.batches > 0))
        fatal("micro_engine_throughput: replay batches ",
              barrierBatched.batches, " batched / ",
              barrierReplay.batches,
              " per-quantum — batching is not engaging where it should");

    // Every mode must have covered the identical quantum count
    // (executed, replayed, or idle-skipped), and exact mode must never
    // have replayed: otherwise the wall-clock comparison is comparing
    // different amounts of simulation.
    if (steadyExact.quanta != steadyFast.quanta ||
        fleetExact.covered() != fleetEvent.covered() ||
        sparseExact.covered() != sparseEvent.covered())
        fatal("micro_engine_throughput: modes covered different "
              "quantum counts");
    if (steadyExact.ffQuanta != 0 || fleetExact.ffQuanta != 0 ||
        sparseExact.ffQuanta != 0 || crowdedExact.mode.ffQuanta != 0)
        fatal("micro_engine_throughput: exact mode replayed quanta");
    // The determinism contract: the event core and the exact oracle
    // must produce bit-identical fleet reports, on the loaded fleet
    // and the sparse one alike.
    if (!cluster::identicalTotals(eventReport, exactReport) ||
        !cluster::identicalTotals(sparseEventReport, sparseExactReport))
        fatal("micro_engine_throughput: event scheduler diverged from "
              "the exact oracle");
    // Deterministic fast-path assertion (independent of wall clock):
    // on a purely steady workload with no observers, everything after
    // the first quantum must take the replay path.
    if (steadyFast.ffQuanta < 0.99 * steadyFast.quanta)
        fatal("micro_engine_throughput: steady replay rate ",
              steadyFast.ffQuanta / steadyFast.quanta,
              " — the fast path is not engaging");

    TextTable table({"scenario", "mode", "sim s / wall s", "quanta",
                     "ff quanta", "skipped", "solves", "memo hits"});
    addRow(table, "steady", "exact-quantum", steadyExact);
    addRow(table, "steady", "fast-forward", steadyFast);
    addRow(table, "fleet", "exact-quantum", fleetExact);
    addRow(table, "fleet", "event", fleetEvent);
    addRow(table, "sparse", "exact-quantum", sparseExact);
    addRow(table, "sparse", "event", sparseEvent);
    addRow(table, "single_thread_barriers", "exact-quantum",
           barrierExact.mode);
    addRow(table, "single_thread_barriers", "replay",
           barrierReplay.mode);
    addRow(table, "single_thread_barriers", "batched",
           barrierBatched.mode);
    addRow(table, "crowded", "exact-quantum", crowdedExact.mode);
    addRow(table, "crowded", "fast-forward", crowdedFast.mode);
    table.print(std::cout);

    const double steadySpeedup =
        steadyFast.wall > 0 ? steadyExact.wall / steadyFast.wall : 0;
    const double fleetSpeedup =
        fleetEvent.wall > 0 ? fleetExact.wall / fleetEvent.wall : 0;
    const double sparseSpeedup =
        sparseEvent.wall > 0 ? sparseExact.wall / sparseEvent.wall : 0;
    // The headline acceptance ratio: how close the event-driven
    // mostly-idle fleet gets to a lone fast-forwarding machine's
    // sim-seconds-per-wall.
    const double eventVsSteady =
        steadyFast.simPerWall() > 0
            ? sparseEvent.simPerWall() / steadyFast.simPerWall()
            : 0;

    bench::printPaperMeasured(
        std::cout,
        "n/a (engineering target: >= 5x steady, >= 2x fleet, event "
        "fleet within 2x of steady, bit-identical output)",
        "steady x" + TextTable::num(steadySpeedup, 1) + " (" +
            TextTable::num(steadyFast.simPerWall(), 0) + " vs " +
            TextTable::num(steadyExact.simPerWall(), 0) +
            " sim s/wall s), fleet x" +
            TextTable::num(fleetSpeedup, 1) + ", sparse event x" +
            TextTable::num(sparseSpeedup, 1) + " over exact (at " +
            TextTable::num(100.0 * eventVsSteady, 1) +
            "% of steady), replay rate " +
            TextTable::num(
                100.0 * steadyFast.ffQuanta / steadyFast.quanta, 1) +
            "% steady / " +
            TextTable::num(
                100.0 * fleetEvent.ffQuanta / fleetEvent.quanta, 1) +
            "% fleet, idle skipped " +
            TextTable::num(fleetEvent.skipped, 0) +
            ", solver calls " +
            TextTable::num(fleetEvent.solves, 0) + " of " +
            TextTable::num(fleetExact.solves, 0));

    bench::BenchJson json("BENCH_engine.json");
    jsonScenario(json, "steady", steadyExact, steadyFast);
    jsonScenario(json, "fleet", fleetExact, fleetEvent);
    json.metric("fleet", "idle_quanta_skipped", fleetEvent.skipped);
    json.metric("fleet", "exact_oracle_identical", 1.0);
    json.metric("sparse", "sim_per_wall_exact",
                sparseExact.simPerWall());
    json.metric("sparse", "sim_per_wall_event",
                sparseEvent.simPerWall());
    json.metric("sparse", "event_speedup_over_exact", sparseSpeedup);
    json.metric("sparse", "event_vs_steady_ratio", eventVsSteady);
    // Stepped vs elided on the mostly idle cell: drained busy engines
    // move quanta from the first count to the second.
    json.metric("sparse", "quanta", sparseEvent.quanta);
    json.metric("sparse", "idle_quanta_skipped", sparseEvent.skipped);
    json.metric("sparse", "exact_oracle_identical", 1.0);
    json.metric("single_thread_barriers", "sim_per_wall_exact",
                barrierExact.mode.simPerWall());
    json.metric("single_thread_barriers", "sim_per_wall_replay",
                barrierReplay.mode.simPerWall());
    json.metric("single_thread_barriers", "sim_per_wall_batched",
                barrierBatched.mode.simPerWall());
    const auto ratio = [](double slow, double fast) {
        return slow > 0 && fast > 0 ? slow / fast : 0;
    };
    json.metric("single_thread_barriers", "speedup",
                ratio(barrierExact.mode.wall, barrierBatched.mode.wall));
    json.metric("single_thread_barriers", "speedup_over_replay",
                ratio(barrierReplay.mode.wall, barrierBatched.mode.wall));
    json.metric("single_thread_barriers", "quanta",
                barrierBatched.mode.quanta);
    json.metric("single_thread_barriers", "replay_batches",
                barrierBatched.batches);
    json.metric("single_thread_barriers", "bit_identical", 1.0);
    json.metric("crowded", "sim_per_wall_exact",
                crowdedExact.mode.simPerWall());
    json.metric("crowded", "sim_per_wall_ff", crowdedFast.mode.simPerWall());
    json.metric("crowded", "quanta", crowdedFast.mode.quanta);
    json.metric("crowded", "ff_quanta", crowdedFast.mode.ffQuanta);
    json.metric("crowded", "rotations", crowdedFast.rotations);
    json.metric("crowded", "completions", crowdedFast.completions);
    json.metric("crowded", "bit_identical", 1.0);
    const cluster::SchedulerCounters &sc = eventReport.sched;
    json.metric("fleet_events", "arrival",
                static_cast<double>(sc.eventsArrival));
    json.metric("fleet_events", "retry",
                static_cast<double>(sc.eventsRetry));
    json.metric("fleet_events", "fault",
                static_cast<double>(sc.eventsFault));
    json.metric("fleet_events", "keepalive",
                static_cast<double>(sc.eventsKeepAlive));
    json.metric("fleet_events", "progress",
                static_cast<double>(sc.eventsProgress));
    json.metric("fleet_events", "barriers",
                static_cast<double>(sc.barriers));
    json.metric("fleet_events", "barriers_elided",
                static_cast<double>(sc.barriersElided));
    json.write();

    if (strict) {
        if (steadySpeedup < 5.0)
            fatal("micro_engine_throughput: steady speedup ",
                  steadySpeedup, " below the 5x floor");
        if (fleetSpeedup < 2.0)
            fatal("micro_engine_throughput: fleet speedup ",
                  fleetSpeedup, " below the 2x floor");
        if (eventVsSteady < 0.5)
            fatal("micro_engine_throughput: event fleet at ",
                  eventVsSteady,
                  " of steady-state throughput — below the within-2x "
                  "floor");
    }
    return 0;
}
