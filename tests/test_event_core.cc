/**
 * @file
 * Differential suite for the event-driven cluster core: the default
 * serving loop must reproduce the exact-quantum oracle bit-for-bit —
 * every FleetReport field, every per-machine slice, every billing
 * ledger record — across traffic models, mixed fleets, chaos
 * campaigns, and worker-thread counts.
 *
 * The oracle (ClusterConfig::exactQuantum, set on a copy of the
 * runner's config) takes every grid barrier, steps every machine
 * through every quantum, and turns engine fast-forward off: any
 * divergence here means the event batches dispatched, harvested, or
 * accumulated in a different order than the plain epoch march, which
 * would silently move billing totals.
 */

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/config_reader.h"
#include "fleet_run.h"
#include "scenario/scenario_runner.h"
#include "sim/machine_catalog.h"
#include "workload/suite.h"

namespace litmus
{
namespace
{

/** Body scale stretching a sub-second function past a minute. */
constexpr double kLongRunScale = 320;

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream file(path);
    file << text;
    return path;
}

using test::expectIdentical;
using test::RunOutcome;

/** Serve @p cfg, default loop or (@p exact) the oracle. */
RunOutcome
serveWith(cluster::ClusterConfig cfg, bool exact)
{
    cfg.exactQuantum = exact;
    return test::serveFleet(cfg);
}

RunOutcome
runWith(scenario::ScenarioSpec spec, bool exact, unsigned threads = 1)
{
    spec.threads = threads;
    const scenario::ScenarioRunner runner(std::move(spec));
    return serveWith(runner.clusterConfig(), exact);
}

/** fig22-style base: small warmth-aware fleet, test-set functions.
 *  A key in @p extra overrides the base value in place. */
scenario::ScenarioSpec
baseSpec(const std::string &extra = "")
{
    ConfigReader config = ConfigReader::fromString(
        "fleet = cascade-5218:3\n"
        "policy = warmth-aware\n"
        "rate = 1500\n"
        "invocations = 400\n"
        "keepalive = 0.05\n"
        "functions = test\n"
        "seed = 11\n");
    const ConfigReader overrides = ConfigReader::fromString(extra);
    for (const ConfigReader::Entry &entry : overrides.entries())
        config.set(entry.key, entry.value);
    return scenario::ScenarioSpec::fromConfig(config);
}

// ---- traffic models --------------------------------------------------

TEST(EventCoreDifferential, PoissonBitIdentical)
{
    const auto spec = baseSpec();
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

TEST(EventCoreDifferential, DiurnalBitIdentical)
{
    // fig24-style load swing: deep idle troughs exercise the event
    // core's idle fast-forward against an oracle that takes every
    // barrier.
    const auto spec = baseSpec("traffic = diurnal\n"
                               "diurnal.period = 0.4\n"
                               "diurnal.amplitude = 0.95\n");
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

TEST(EventCoreDifferential, BurstBitIdentical)
{
    const auto spec = baseSpec("traffic = burst\n"
                               "burst.on = 0.05\n"
                               "burst.off = 0.2\n"
                               "burst.idle_fraction = 0.02\n");
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

TEST(EventCoreDifferential, TraceReplayBitIdentical)
{
    // Includes a t=0 arrival (due before the first barrier) and long
    // gaps: the idle fleet's batches must land on the barriers where
    // the oracle dispatches.
    const std::string tracePath = writeTempFile(
        "event_core_trace.csv", "0.0,float-py\n"
                                "0.001,aes-go\n"
                                "0.13,\n"
                                "0.50,float-py\n"
                                "0.5001,aes-go\n"
                                "1.75,\n");
    const auto spec = baseSpec("traffic = trace\n"
                               "trace.path = " + tracePath + "\n");
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

TEST(EventCoreDifferential, TraceAtZeroWithPendingFaultBitIdentical)
{
    // A t=0 arrival is due before the first barrier. With a fault
    // pending on an idle fleet, the event core must still serve it at
    // the first barrier (as the oracle does) rather than jump to the
    // fault: a late dispatch would put it in flight at the crash.
    const std::string tracePath = writeTempFile(
        "event_core_t0.csv", "0.0,float-py\n"
                             "0.9,aes-go\n");
    const auto spec = baseSpec("fleet = cascade-5218:1\n"
                               "traffic = trace\n"
                               "trace.path = " + tracePath + "\n"
                               "fault.crash.at = 0.3@0\n"
                               "fault.crash.restart = 0.05\n"
                               "fault.retry = drop\n");
    const RunOutcome event = runWith(spec, false);
    expectIdentical(event, runWith(spec, true));
    EXPECT_EQ(event.report.crashes, 1u);
    EXPECT_EQ(event.report.killedInvocations, 0u);
}

// ---- fleets ----------------------------------------------------------

TEST(EventCoreDifferential, MixedFleetBitIdentical)
{
    // Heterogeneous types share one quantum grid; per-type billing
    // slices must match record for record.
    const auto spec = scenario::ScenarioSpec::fromString(
        "fleet = cascade-5218:2,icelake-4314:2\n"
        "policy = cost-aware\n"
        "rate = 2000\n"
        "invocations = 500\n"
        "keepalive = 0.1\n"
        "functions = test\n"
        "seed = 3\n");
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

// ---- chaos -----------------------------------------------------------

TEST(EventCoreDifferential, ChaosProviderAbsorbsBitIdentical)
{
    // fig25-style campaign: stochastic crashes with backoff retries.
    // Restart transitions, kill/retry accounting, and absorbed-work
    // conservation all must match the oracle.
    const auto spec = baseSpec("fault.crash.mtbf = 0.4\n"
                               "fault.crash.restart = 0.05\n"
                               "fault.retry = backoff\n"
                               "fault.retry.max = 3\n"
                               "fault.retry.backoff = 0.02\n"
                               "fault.billing = provider-absorbs\n"
                               "fault.seed = 5\n");
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

TEST(EventCoreDifferential, ChaosTenantPaysScriptedBitIdentical)
{
    // Scripted crashes and slowdowns at fixed times under tenant-pays
    // billing: fault events must fire at the same barrier in both
    // modes even when the fleet is wholly idle around them.
    const auto spec = baseSpec("fault.crash.at = 0.05@0,0.11@2\n"
                               "fault.crash.restart = 0.04\n"
                               "fault.slow.at = 0.08@1\n"
                               "fault.slow.duration = 0.06\n"
                               "fault.slow.factor = 0.5\n"
                               "fault.retry = retry-once\n"
                               "fault.billing = tenant-pays\n");
    expectIdentical(runWith(spec, false), runWith(spec, true));
}

TEST(EventCoreDifferential, SparseFleetFaultsBitIdentical)
{
    // A 64-machine fleet at ~1.5 arrivals per machine-second is mostly
    // idle: the busy set, the keep-alive heap and the maintained
    // snapshots all see machines come and go. Short keep-alives expire
    // on idle machines; crashes (with restarts), blindness and slowdown
    // windows touch idle and busy machines alike, and backoff retries
    // re-enter the dispatch batch. At every barrier the oracle also
    // checks the snapshots, busy set and heap against the fleet.
    for (const char *policy :
         {"least-loaded", "warmth-aware", "round-robin"}) {
        SCOPED_TRACE(policy);
        const auto spec = scenario::ScenarioSpec::fromString(
            std::string("fleet = cascade-5218:64\n"
                        "policy = ") +
            policy +
            "\n"
            "rate = 100\n"
            "invocations = 60\n"
            "keepalive = 0.03\n"
            "functions = test\n"
            "seed = 7\n"
            "fault.crash.mtbf = 3\n"
            "fault.crash.restart = 0.05\n"
            "fault.blind.mtbf = 2\n"
            "fault.blind.duration = 0.08\n"
            "fault.slow.mtbf = 2\n"
            "fault.slow.duration = 0.1\n"
            "fault.slow.factor = 0.5\n"
            "fault.retry = backoff\n"
            "fault.retry.max = 3\n"
            "fault.retry.backoff = 0.02\n"
            "fault.seed = 9\n");
        const RunOutcome serial = runWith(spec, false, 1);
        const RunOutcome exact = runWith(spec, true, 1);
        expectIdentical(serial, exact);
        EXPECT_GT(serial.report.crashes, 0u);
        EXPECT_GT(serial.report.sched.eventsKeepAlive, 0u);
        EXPECT_EQ(serial.report.sched.eventsKeepAlive,
                  exact.report.sched.eventsKeepAlive);
        EXPECT_EQ(serial.report.sched.eventsFault,
                  exact.report.sched.eventsFault);
        // Bookkeeping follows the busy minority, not the fleet: the
        // event core visits far fewer machines than the oracle's
        // every-machine batches.
        EXPECT_LT(5 * serial.report.sched.barrierMachineVisits,
                  exact.report.sched.barrierMachineVisits);

        // Four threads: identical to the oracle via the serial run.
        const RunOutcome parallel = runWith(spec, false, 4);
        expectIdentical(serial, parallel);
        EXPECT_EQ(parallel.report.sched.barrierMachineVisits,
                  serial.report.sched.barrierMachineVisits);
    }
}

// ---- command-line configurations --------------------------------------

TEST(EventCoreDifferential, FleetCliDefaultsBitIdentical)
{
    // `litmus_fleet --invocations 300`: the CLI's defaults are the
    // spec defaults (four cascade-5218 machines, warmth-aware, Poisson
    // at 2000/s over the whole suite), at the default thread count.
    const auto spec =
        scenario::ScenarioSpec::fromString("invocations = 300\n");
    ASSERT_EQ(spec.threads, 0u);
    expectIdentical(runWith(spec, false, spec.threads),
                    runWith(spec, true, spec.threads));
}

TEST(EventCoreDifferential, AzureStreamScenarioBitIdentical)
{
    // The shipped azure example: idle gaps between trace minutes, so
    // busy engines drain long before the next arrival and the default
    // loop elides each batch's idle tail.
    const auto spec = scenario::ScenarioSpec::fromFile(
        std::string(LITMUS_EXAMPLES_DIR) +
        "/scenarios/azure_stream.scenario");
    const RunOutcome event = runWith(spec, false, spec.threads);
    expectIdentical(event, runWith(spec, true, spec.threads));
    EXPECT_GT(event.report.sched.idleQuantaSkipped, 0u);
}

TEST(EventCoreDifferential, SparseFleetCliCampaignBitIdentical)
{
    // `litmus_fleet --fleet=cascade-5218:256 --policy=least-loaded
    // --rate=256 --invocations=600 --keepalive=0.5 --fault.*=...`: 256
    // mostly idle machines under crashes, blindness windows and
    // backoff retries.
    // The busy set, keep-alive heap and maintained snapshots must
    // reproduce the oracle, which also cross-checks them against the
    // whole fleet at every barrier.
    const auto spec = scenario::ScenarioSpec::fromString(
        "fleet = cascade-5218:256\n"
        "policy = least-loaded\n"
        "rate = 256\n"
        "invocations = 600\n"
        "keepalive = 0.5\n"
        "fault.blind.mtbf = 2\n"
        "fault.blind.duration = 0.3\n"
        "fault.crash.mtbf = 4\n"
        "fault.crash.restart = 0.2\n"
        "fault.retry = backoff\n");
    const RunOutcome event = runWith(spec, false, spec.threads);
    expectIdentical(event, runWith(spec, true, spec.threads));
    EXPECT_GT(event.report.crashes, 0u);
    EXPECT_GT(event.report.retries, 0u);
    EXPECT_GT(event.report.sched.eventsKeepAlive, 0u);
}

// ---- threads ---------------------------------------------------------

TEST(EventCoreDifferential, ThreadCountInvariant)
{
    const auto spec = baseSpec();
    const RunOutcome serial = runWith(spec, false, 1);
    for (unsigned threads : {4u, 16u}) {
        expectIdentical(serial, runWith(spec, false, threads));
        expectIdentical(serial, runWith(spec, true, threads));
    }
}

/** A fixed arrival list over borrowed function specs. */
class ListTraffic final : public cluster::TrafficSource
{
  public:
    explicit ListTraffic(std::vector<cluster::Invocation> arrivals)
        : arrivals_(std::move(arrivals))
    {
    }

    std::string name() const override { return "list"; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &,
         const std::vector<const workload::FunctionSpec *> &) const override
    {
        return cluster::replayStream(arrivals_, name());
    }

  private:
    std::vector<cluster::Invocation> arrivals_;
};

// ---- counters --------------------------------------------------------

TEST(EventCoreCounters, EventCoreSkipsIdleWork)
{
    // A sparse trace leaves the fleet idle for long stretches: the
    // event core must elide idle quanta and barriers while the exact
    // oracle takes every grid barrier and steps every machine; the
    // shared-path event counters must agree between the two.
    const std::string tracePath = writeTempFile(
        "event_core_sparse.csv", "0.01,float-py\n"
                                 "0.8,aes-go\n"
                                 "1.9,float-py\n");
    const auto spec = baseSpec("traffic = trace\n"
                               "trace.path = " + tracePath + "\n");
    const RunOutcome event = runWith(spec, false);
    const RunOutcome exact = runWith(spec, true);
    expectIdentical(event, exact);

    const cluster::SchedulerCounters &ev = event.report.sched;
    const cluster::SchedulerCounters &ex = exact.report.sched;
    EXPECT_GT(ev.idleQuantaSkipped, 0u);
    EXPECT_GT(ev.barriersElided, 0u);
    EXPECT_EQ(ex.idleQuantaSkipped, 0u);
    EXPECT_EQ(ex.barriersElided, 0u);
    EXPECT_LT(ev.barriers, ex.barriers);
    EXPECT_EQ(ev.barriers + ev.barriersElided, ex.barriers);
    EXPECT_EQ(ev.eventsArrival, ex.eventsArrival);
    EXPECT_EQ(ev.eventsRetry, ex.eventsRetry);
    EXPECT_EQ(ev.eventsFault, ex.eventsFault);
}

TEST(EventCoreCounters, DrainedEnginesStopStepping)
{
    // Invocations finish within a fraction of a second and the next
    // arrival is 1.5 s away, so each busy batch runs far past the
    // point its engines drain. The default loop must step only the
    // quanta that hold live work and elide the drained tail, covering
    // exactly the oracle's grid with identical output.
    const std::string tracePath = writeTempFile(
        "event_core_drained.csv", "0.01,float-py\n"
                                  "0.012,aes-go\n"
                                  "1.5,float-py\n"
                                  "3.0,aes-go\n"
                                  "3.002,float-py\n"
                                  "4.5,aes-go\n");
    const auto spec = baseSpec("traffic = trace\n"
                               "trace.path = " + tracePath + "\n");
    const RunOutcome serial = runWith(spec, false, 1);
    const RunOutcome exact = runWith(spec, true, 1);
    expectIdentical(serial, exact);

    double steppedDefault = 0, steppedExact = 0;
    ASSERT_EQ(serial.stepped.size(), exact.stepped.size());
    for (std::size_t m = 0; m < serial.stepped.size(); ++m) {
        steppedDefault += serial.stepped[m];
        steppedExact += exact.stepped[m];
        EXPECT_EQ(exact.skipped[m], 0.0) << "machine " << m;
        EXPECT_EQ(serial.stepped[m] + serial.skipped[m], exact.stepped[m])
            << "machine " << m;
    }
    EXPECT_GT(steppedDefault, 0.0);
    // Stepping busy engines to each batch's barrier would cost about
    // half the oracle's quanta here; the busy quanta alone are < 10%.
    EXPECT_LT(steppedDefault, 0.15 * steppedExact);

    for (unsigned threads : {4u, 16u}) {
        const RunOutcome parallel = runWith(spec, false, threads);
        expectIdentical(serial, parallel);
        EXPECT_EQ(parallel.stepped, serial.stepped);
        EXPECT_EQ(parallel.skipped, serial.skipped);
        expectIdentical(serial, runWith(spec, true, threads));
    }
}

TEST(EventCoreCounters, FleetClockIsPerQuantumAccumulation)
{
    // Two minute-scale gaps crossed by closed-form clock jumps: one
    // while a long invocation keeps the fleet busy (the batch covers
    // the next arrival), one across an idle fleet. The makespan must
    // still carry the bits of one fadd per quantum from t = 0.
    workload::FunctionSpec longRun =
        workload::functionByName("float-py");
    longRun.name = "float-py-long";
    for (sim::Phase &phase : longRun.body)
        phase.instructions *= kLongRunScale;
    const workload::FunctionSpec &shortRun =
        workload::functionByName("aes-go");
    const ListTraffic traffic({{&longRun, 0.01}, {&shortRun, 65.0},
                               {&shortRun, 200.0}});

    cluster::ClusterConfig cfg;
    cfg.fleet = {{"cascade-5218", 1}};
    cfg.functionPool = {&longRun, &shortRun};
    cfg.traffic = &traffic;
    cfg.keepAlive = 20;
    cfg.threads = 1;
    cluster::Cluster fleet(cfg);
    const cluster::FleetReport &report = fleet.run();
    ASSERT_EQ(report.completions, 3u);

    // The long invocation stayed live across the whole first gap and
    // drained long before the second one.
    const sim::Engine &engine = fleet.engine(0);
    const double quantum = engine.quantum();
    EXPECT_GT(engine.stats().quanta.value() * quantum, 65.0);
    EXPECT_LT(engine.stats().quanta.value() * quantum, 100.0);
    EXPECT_GT(report.makespan, 200.0);

    const auto quanta =
        static_cast<std::uint64_t>(report.machines[0].quanta);
    Seconds clock = 0;
    for (std::uint64_t q = 0; q < quanta; ++q)
        clock += quantum;
    EXPECT_EQ(report.makespan, clock);
    EXPECT_EQ(engine.now(), clock);
}

TEST(EventCoreCounters, BarrierWorkIndependentOfIdleMachines)
{
    // Least-loaded routes to the lowest-index idle machine, and this
    // traffic never keeps more than a handful busy, so a 256- and a
    // 2048-machine fleet serve it on the same machines. Per-barrier
    // bookkeeping must then cost the same on both: the idle 1792
    // machines are never visited.
    const workload::FunctionSpec &floatPy =
        workload::functionByName("float-py");
    const workload::FunctionSpec &aesGo =
        workload::functionByName("aes-go");
    std::vector<cluster::Invocation> arrivals;
    for (unsigned i = 0; i < 60; ++i) {
        cluster::Invocation inv;
        inv.spec = i % 2 == 0 ? &floatPy : &aesGo;
        // Bursts of three inside one epoch; each drains and its warm
        // containers expire before the next.
        inv.arrival = 0.01 + 0.5 * (i / 3) + 0.0002 * (i % 3);
        inv.seq = i;
        arrivals.push_back(inv);
    }
    const ListTraffic traffic(arrivals);

    const auto serve = [&](unsigned machines) {
        cluster::ClusterConfig cfg;
        cfg.fleet = {{"cascade-5218", machines}};
        cfg.policy = cluster::DispatchPolicy::LeastLoaded;
        cfg.functionPool = {&floatPy, &aesGo};
        cfg.traffic = &traffic;
        cfg.keepAlive = 0.1;
        cfg.threads = 1;
        cluster::Cluster fleet(cfg);
        return fleet.run();
    };
    const cluster::FleetReport small = serve(256);
    const cluster::FleetReport large = serve(2048);
    ASSERT_EQ(small.completions, arrivals.size());
    EXPECT_TRUE(cluster::identicalTotals(small, large));
    EXPECT_GT(small.sched.eventsKeepAlive, 0u);
    EXPECT_EQ(small.sched.eventsKeepAlive, large.sched.eventsKeepAlive);
    EXPECT_EQ(small.sched.barriers, large.sched.barriers);
    EXPECT_GT(small.sched.barrierMachineVisits, 0u);
    EXPECT_EQ(small.sched.barrierMachineVisits,
              large.sched.barrierMachineVisits);

    // Each burst is one dispatch batch; the batch's snapshots count
    // its own dispatches, so least-loaded spreads it over machines
    // 0-2 and the rest of the fleet never serves.
    for (const cluster::FleetReport *report : {&small, &large}) {
        for (const cluster::MachineReport &m : report->machines)
            EXPECT_EQ(m.dispatched, m.index < 3 ? 20u : 0u)
                << "machine " << m.index;
    }
}

TEST(EventCoreCounters, SteadyEnginesSkipBarriers)
{
    // Eight long invocations land on eight machines of a sparse fleet
    // at once; then the fleet drains one epoch per barrier for seconds.
    // Each engine spends nearly all of it replaying one steady body
    // phase, which no barrier needs to see, so the default loop must
    // visit far fewer machines than (busy machines x barriers) while
    // serving bit for bit what the oracle serves.
    workload::FunctionSpec longRun =
        workload::functionByName("float-py");
    longRun.name = "float-py-long";
    for (sim::Phase &phase : longRun.body)
        phase.instructions *= 10;
    std::vector<cluster::Invocation> arrivals;
    for (unsigned i = 0; i < 8; ++i)
        arrivals.push_back({&longRun, 0.01 + 0.0001 * i, i});
    const ListTraffic traffic(arrivals);

    cluster::ClusterConfig cfg;
    cfg.fleet = {{"cascade-5218", 64}};
    cfg.policy = cluster::DispatchPolicy::LeastLoaded;
    cfg.functionPool = {&longRun};
    cfg.traffic = &traffic;
    cfg.keepAlive = 0.05;
    cfg.threads = 1;
    const RunOutcome lazy = serveWith(cfg, false);
    const RunOutcome exact = serveWith(cfg, true);
    expectIdentical(lazy, exact);
    const cluster::FleetReport &report = lazy.report;
    ASSERT_EQ(report.completions, arrivals.size());
    for (const cluster::MachineReport &m : report.machines)
        EXPECT_EQ(m.dispatched, m.index < 8 ? 1u : 0u)
            << "machine " << m.index;

    // Every barrier while an invocation runs finds its machine busy,
    // and the drain takes one barrier per epoch, so an invocation live
    // for l seconds spans at least l / epoch - 2 barriers.
    const double busyBarriers =
        static_cast<double>(report.completions) *
        (report.meanLatency / cfg.epoch - 2);
    EXPECT_GT(busyBarriers, 8000.0);
    EXPECT_LT(20.0 * static_cast<double>(report.sched.barrierMachineVisits),
              busyBarriers);

    cfg.threads = 4;
    const RunOutcome parallel = serveWith(cfg, false);
    expectIdentical(lazy, parallel);
    EXPECT_EQ(parallel.report.sched.barrierMachineVisits,
              report.sched.barrierMachineVisits);
}

// ---- far-future events -------------------------------------------------

/** A one-machine fleet replaying @p rows, plus @p extra keys. */
scenario::ScenarioSpec
traceSpec(const std::string &file, const std::string &rows,
          const std::string &extra = "")
{
    return baseSpec("fleet = cascade-5218:1\n"
                    "traffic = trace\n"
                    "trace.path = " + writeTempFile(file, rows) + "\n" +
                    extra);
}

TEST(EventCoreFarFuture, ArrivalBelowTheClockHorizonIsServed)
{
    // At 4e11 s one 50 us quantum still moves the clock (it rounds to
    // one ulp, 61 us), so the idle fleet jumps straight to the first
    // covering barrier and serves the row; landing anywhere later
    // would trip the drain cap instead. Idle from t = 0, and idle after
    // serving an earlier row.
    for (const char *rows : {"4e11,aes-go\n", "0.01,float-py\n"
                                               "4e11,aes-go\n"}) {
        SCOPED_TRACE(rows);
        const auto spec = traceSpec("event_core_4e11.csv", rows);
        const RunOutcome out = runWith(spec, false);
        EXPECT_EQ(out.report.completions, out.report.arrivals);
        EXPECT_GT(out.report.makespan, 4e11);
        EXPECT_LT(out.report.makespan, 4e11 + 60);
    }
}

TEST(EventCoreFarFutureDeath, ArrivalPastTheClockHorizonIsFatal)
{
    // Past 2^39 s a 50 us quantum is below half an ulp: the clock
    // stalls there and the row can never come due. That must fail
    // fast, naming the event, not hang or blame the drain cap.
    const auto spec = traceSpec("event_core_1e12.csv", "0.01,float-py\n"
                                                       "1e12,aes-go\n");
    EXPECT_EXIT((void)runWith(spec, false), ::testing::ExitedWithCode(1),
                "fleet clock is stuck at 5\\.49756e\\+11 s.*pending "
                "arrival at 1e\\+12 s can never come due");
}

TEST(EventCoreFarFutureDeath, RetryPastTheClockHorizonIsFatal)
{
    // A scripted crash kills the in-flight invocation; its backoff
    // retry lands past the clock horizon.
    const auto spec =
        traceSpec("event_core_retry.csv", "0.0,float-py\n",
                  "fault.crash.at = 0.005@0\n"
                  "fault.crash.restart = 0.05\n"
                  "fault.retry = backoff\n"
                  "fault.retry.backoff = 1e12\n");
    EXPECT_EXIT((void)runWith(spec, false), ::testing::ExitedWithCode(1),
                "fleet clock is stuck at 5\\.49756e\\+11 s.*pending "
                "retry at 1e\\+12 s can never come due");
}

TEST(EventCoreFarFuture, ScriptedCrashKillsTheInvocation)
{
    // The retry death test's premise: the crash lands while the
    // invocation is in flight, so its retry is what the clock waits
    // for.
    const auto spec =
        traceSpec("event_core_retry_ok.csv", "0.0,float-py\n",
                  "fault.crash.at = 0.005@0\n"
                  "fault.crash.restart = 0.05\n"
                  "fault.retry = backoff\n"
                  "fault.retry.backoff = 1\n");
    const RunOutcome out = runWith(spec, false);
    EXPECT_EQ(out.report.killedInvocations, 1u);
    EXPECT_EQ(out.report.retries, 1u);
    EXPECT_EQ(out.report.completions, 1u);
}

// ---- quantum agreement (config-time validation) ----------------------

TEST(EventCoreQuantum, MismatchedFleetQuantumIsFatal)
{
    // A type with a different engine quantum cannot share the fleet's
    // integer tick grid; the cluster must refuse at validate() time
    // with a message naming both types.
    const std::string path = writeTempFile(
        "event_core_coarse.conf", "base = icelake-4314\n"
                                  "name = coarse-4314\n"
                                  "quantum_us = 100\n");
    sim::MachineCatalog::registerFromFile(path);
    cluster::ClusterConfig cfg;
    cfg.fleet = {{"cascade-5218", 1}, {"coarse-4314", 1}};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "same quantum");
}

TEST(EventCoreQuantum, QuantumMustBeWholeNanoseconds)
{
    auto cfg = sim::MachineCatalog::get("cascade-5218");
    cfg.quantum = 2.5e-9;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "whole number");
}

} // namespace
} // namespace litmus
