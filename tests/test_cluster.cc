/**
 * @file
 * Tests for the fleet serving layer: dispatch policies, open-loop
 * fan-in, warm-container reuse, billing conservation, and determinism
 * of the threaded epoch runner.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "cluster/cluster.h"
#include "core/calibration.h"
#include "fleet_run.h"
#include "poisson_traffic.h"
#include "scenario/scenario_runner.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

namespace litmus::cluster
{
namespace
{

using workload::FunctionSpec;
using workload::GeneratorKind;
using workload::Language;

/** Small fast functions (Go startup is the shortest) for fleet runs. */
const std::vector<FunctionSpec> &
tinySuite()
{
    static const std::vector<FunctionSpec> suite = [] {
        std::vector<FunctionSpec> fns;
        for (const char *name : {"alpha-go", "beta-go"}) {
            FunctionSpec spec;
            spec.name = name;
            spec.language = Language::Go;
            sim::Phase body;
            body.name = "body";
            body.instructions = 3_Minstr;
            body.demand.cpi0 = 0.8;
            body.demand.l2Mpki = 4.0;
            body.demand.l3WorkingSet = 2_MiB;
            body.demand.l3MissBase = 0.2;
            body.demand.mlp = 4.0;
            spec.body = {body};
            spec.memoryFootprint = 256_MiB;
            fns.push_back(spec);
        }
        return fns;
    }();
    return suite;
}

std::vector<const FunctionSpec *>
tinyPool()
{
    std::vector<const FunctionSpec *> pool;
    for (const FunctionSpec &spec : tinySuite())
        pool.push_back(&spec);
    return pool;
}

/** An 8-core cut of the Cascade Lake preset, registered once so fleet
 *  specs can name it. */
const std::string &
testMachine()
{
    static const std::string name = [] {
        sim::MachineConfig cfg =
            sim::MachineCatalog::get("cascade-5218");
        cfg.name = "test-cascade-8";
        cfg.cores = 8;
        sim::MachineCatalog::registerPreset(cfg);
        return cfg.name;
    }();
    return name;
}

ClusterConfig
smallFleet(unsigned machines, DispatchPolicy policy,
           std::uint64_t invocations = 200)
{
    ClusterConfig cfg;
    cfg.fleet = {{testMachine(), machines}};
    cfg.policy = policy;
    cfg.traffic = test::poissonTraffic(4000, invocations);
    cfg.functionPool = tinyPool();
    cfg.seed = 11;
    cfg.threads = 1;
    return cfg;
}

TEST(DispatchPolicyNames, RoundTripAndAliases)
{
    const auto parse = [](const std::string &name) {
        return scenario::ScenarioSpec().set("policy", name).policy;
    };
    for (const auto &[policy, name] : canonical(kDispatchPolicies))
        EXPECT_EQ(parse(std::string(name)), policy);
    EXPECT_EQ(parse("rr"), DispatchPolicy::RoundRobin);
    EXPECT_EQ(parse("ll"), DispatchPolicy::LeastLoaded);
    EXPECT_EQ(parse("warmth"), DispatchPolicy::WarmthAware);
    EXPECT_EXIT(parse("fastest"), ::testing::ExitedWithCode(1),
                "unknown dispatch policy");
}

TEST(ClusterConfig, ValidateCatchesNonsense)
{
    ClusterConfig cfg;
    cfg.fleet.clear();
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "fleet spec is empty");
    cfg = ClusterConfig{};
    cfg.fleet = {{"cascade-5218", 0}};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "zero machines");
    cfg = ClusterConfig{};
    cfg.fleet = {{"pentium-133", 2}};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "unknown machine 'pentium-133'");
    cfg = ClusterConfig{};
    cfg.functionPool.clear();
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "functionPool is empty");
    cfg = ClusterConfig{};
    cfg.traffic = test::poissonTraffic(4000, 10);
    cfg.epoch = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "epoch");
}

TEST(ClusterConfig, ValidateRejectsNonFiniteKnobs)
{
    // NaN fails every ordered comparison, so `x <= 0` guards let it
    // through: a NaN epoch hangs quantum accounting and a NaN drain
    // cap silently disables the drain fatal.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const auto valid = [] {
        ClusterConfig cfg;
        cfg.traffic = test::poissonTraffic(4000, 10);
        return cfg;
    };
    ClusterConfig cfg = valid();
    cfg.epoch = nan;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "epoch");
    cfg = valid();
    cfg.epoch = inf;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "epoch");
    cfg = valid();
    cfg.keepAlive = nan;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "keep-alive");
    cfg = valid();
    cfg.drainCap = nan;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "drain cap");
    cfg = valid();
    cfg.sharingFactor = nan;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "sharing factor");
    cfg = valid();
    cfg.sharingFactor = inf;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "sharing factor");
}

TEST(ClusterConfig, SubNanosecondEpochIsFatal)
{
    // The epoch runs on the engine's integer-nanosecond grid: one that
    // rounds to zero quanta would divide every barrier by zero.
    ClusterConfig cfg;
    cfg.traffic = test::poissonTraffic(4000, 10);
    cfg.epoch = 1e-10;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "epoch 1e-10 s rounds to zero engine quanta of 5e-05 s");
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "rounds to zero engine quanta");
    // Half a nanosecond rounds up to one tick, hence one quantum.
    cfg.epoch = 0.5e-9;
    cfg.validate();
}

TEST(ClusterConfig, NullTrafficIsFatal)
{
    // There is no built-in arrival source: a fleet without a traffic
    // model is refused, naming the field.
    ClusterConfig cfg;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "traffic is null");
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "traffic is null");
}

TEST(ClusterConfig, ThreadsPastTheCapFailBeforeAnyThreadStarts)
{
    const unsigned cap = ClusterConfig::kMaxThreads;
    const std::string over = std::to_string(cap + 1);
    EXPECT_EQ(scenario::ScenarioSpec::fromString(
                  "threads = " + std::to_string(cap) + "\n")
                  .threads,
              cap);
    // The scenario key (and so litmus_fleet --threads) fails where it
    // is read, naming its line: no cluster exists yet.
    EXPECT_EXIT((void)scenario::ScenarioSpec::fromString(
                    "seed = 1\nthreads = " + over + "\n"),
                ::testing::ExitedWithCode(1),
                "<config>:2: scenario key 'threads' must be <= " +
                    std::to_string(cap) + ", got " + over);
    // A config built in code fails in validate(), which the Cluster
    // constructor runs; the pool starts only in run().
    ClusterConfig cfg;
    cfg.traffic = test::poissonTraffic(4000, 10);
    cfg.threads = cap + 1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "threads must be <= " + std::to_string(cap));
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "threads must be <= " + std::to_string(cap));
    cfg.threads = cap;
    cfg.validate();
}

TEST(ClusterConfig, MachinesPastTheCapFailBeforeAnyEngineIsBuilt)
{
    const unsigned cap = ClusterConfig::kMaxMachines;
    const std::string over = std::to_string(cap + 1);
    EXPECT_EQ(scenario::ScenarioSpec::fromString(
                  "fleet = cascade-5218:" + std::to_string(cap) + "\n")
                  .fleet.front()
                  .count,
              cap);
    // The scenario key (and so litmus_fleet --fleet) fails where it is
    // read, naming its line: a group past the cap, and groups each
    // under it whose sum is not.
    EXPECT_EXIT((void)scenario::ScenarioSpec::fromString(
                    "seed = 1\nfleet = cascade-5218:" + over + "\n"),
                ::testing::ExitedWithCode(1),
                "<config>:2: fleet spec: machine count '" + over +
                    "' in 'cascade-5218:" + over + "' must be <= " +
                    std::to_string(cap) + ", got " + over);
    EXPECT_EXIT((void)scenario::ScenarioSpec::fromString(
                    "fleet = cascade-5218:10000,icelake-4314:10000\n"),
                ::testing::ExitedWithCode(1),
                "<config>:1: fleet spec: .* totals 20000 machines, more "
                "than the " +
                    std::to_string(cap));
    // A config built in code fails in validate(), which the Cluster
    // constructor runs before it builds an engine; summed in unsigned,
    // these two groups would wrap to one machine.
    ClusterConfig cfg;
    cfg.traffic = test::poissonTraffic(4000, 10);
    cfg.fleet = {{"cascade-5218", std::numeric_limits<unsigned>::max()},
                 {"icelake-4314", 2}};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "the fleet has 4294967297 machines, more than "
                "kMaxMachines");
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "the fleet has 4294967297 machines");
    cfg.fleet = {{"cascade-5218", cap + 1}};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "the fleet has " + over + " machines");
    cfg.fleet = {{"cascade-5218", cap}};
    cfg.validate();
}

std::vector<MachineSnapshot>
snapshots(const std::vector<unsigned> &loads)
{
    std::vector<MachineSnapshot> out;
    for (unsigned i = 0; i < loads.size(); ++i) {
        MachineSnapshot snap;
        snap.index = i;
        snap.liveTasks = loads[i];
        snap.memoryCapacity = 1_GiB;
        out.push_back(snap);
    }
    return out;
}

Invocation
arrival(const FunctionSpec &spec)
{
    Invocation inv;
    inv.spec = &spec;
    return inv;
}

TEST(Dispatcher, RoundRobinCycles)
{
    auto rr = makeDispatcher(DispatchPolicy::RoundRobin);
    const auto machines = snapshots({5, 0, 0});
    const Invocation inv = arrival(tinySuite()[0]);
    EXPECT_EQ(rr->pick(inv, machines), 0u);
    EXPECT_EQ(rr->pick(inv, machines), 1u);
    EXPECT_EQ(rr->pick(inv, machines), 2u);
    EXPECT_EQ(rr->pick(inv, machines), 0u);
}

TEST(Dispatcher, LeastLoadedPicksMinWithStableTies)
{
    auto ll = makeDispatcher(DispatchPolicy::LeastLoaded);
    const Invocation inv = arrival(tinySuite()[0]);
    EXPECT_EQ(ll->pick(inv, snapshots({3, 1, 2})), 1u);
    // Ties go to the lowest index.
    EXPECT_EQ(ll->pick(inv, snapshots({2, 1, 1})), 1u);
    EXPECT_EQ(ll->pick(inv, snapshots({0, 0, 0})), 0u);
}

TEST(Dispatcher, CostAwareWeighsSpeedAgainstCrowding)
{
    auto cost = makeDispatcher(DispatchPolicy::CostAware);
    const Invocation inv = arrival(tinySuite()[0]);

    // A fast 2-core machine vs. a slow 2-core machine.
    auto machines = snapshots({0, 0});
    machines[0].cores = 2;
    machines[0].baseFrequency = 2.8e9;
    machines[1].cores = 2;
    machines[1].baseFrequency = 2.4e9;
    // Both idle: the faster clock wins.
    EXPECT_EQ(cost->pick(inv, machines), 0u);

    // Crowd the fast machine until time-sharing eats its clock edge:
    // at 4 live tasks on 2 cores the next task runs at (5/2)/2.8GHz,
    // worse than idle 1/2.4GHz on the slow machine.
    machines[0].liveTasks = 4;
    EXPECT_EQ(cost->pick(inv, machines), 1u);

    // Mild crowding that still beats the slow machine: 1 live task on
    // 2 cores leaves a free core, so the fast machine keeps winning.
    machines[0].liveTasks = 1;
    EXPECT_EQ(cost->pick(inv, machines), 0u);

    // Ties go to the lowest index.
    machines[0].baseFrequency = machines[1].baseFrequency;
    machines[0].liveTasks = 0;
    EXPECT_EQ(cost->pick(inv, machines), 0u);
}

TEST(Dispatcher, PolicyNamesIncludeCostAware)
{
    EXPECT_EQ(parseName(kDispatchPolicies, "cost", "policy"),
              DispatchPolicy::CostAware);
    EXPECT_EQ(parseName(kDispatchPolicies, "cost-aware", "policy"),
              DispatchPolicy::CostAware);
    EXPECT_EQ(nameOf(kDispatchPolicies, DispatchPolicy::CostAware),
              "cost-aware");
    EXPECT_EQ(canonical(kDispatchPolicies).size(), 4u);
}

TEST(Dispatcher, WarmthAwarePrefersWarmThenFallsBack)
{
    auto warmth = makeDispatcher(DispatchPolicy::WarmthAware);
    const Invocation inv = arrival(tinySuite()[0]);

    std::unordered_map<std::string, std::deque<Seconds>> warm;
    warm[tinySuite()[0].name].push_back(1.0);

    // Machine 2 is warm for the function: chosen despite higher load.
    auto machines = snapshots({1, 0, 4});
    machines[2].warmIdle = &warm;
    EXPECT_EQ(warmth->pick(inv, machines), 2u);
    EXPECT_EQ(machines[2].warmIdleFor(inv.spec->name), 1u);

    // Warm for a different function only: fall back to least-loaded.
    const Invocation other = arrival(tinySuite()[1]);
    EXPECT_EQ(warmth->pick(other, machines), 1u);

    // Cold fleet: least-loaded.
    EXPECT_EQ(warmth->pick(inv, snapshots({2, 2, 1})), 2u);
}

TEST(Cluster, ServesAllArrivalsAndReports)
{
    Cluster fleet(smallFleet(3, DispatchPolicy::LeastLoaded));
    const FleetReport &report = fleet.run();

    EXPECT_EQ(report.arrivals, 200u);
    EXPECT_EQ(report.dispatched, 200u);
    EXPECT_EQ(report.completions, 200u);
    EXPECT_EQ(report.coldStarts + report.warmStarts,
              report.dispatched);
    EXPECT_EQ(report.rejectedMemory, 0u);
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_GT(report.meanLatency, 0.0);
    EXPECT_GT(report.billedCpuSeconds, 0.0);

    ASSERT_EQ(report.machines.size(), 3u);
    std::uint64_t dispatched = 0, completions = 0;
    for (const MachineReport &m : report.machines) {
        dispatched += m.dispatched;
        completions += m.completions;
        EXPECT_GT(m.quanta, 0.0);
    }
    EXPECT_EQ(dispatched, report.dispatched);
    EXPECT_EQ(completions, report.completions);

    // Every machine drained.
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_EQ(fleet.engine(i).taskCount(), 0u);
}

TEST(Cluster, BilledTimeConservedAcrossAggregation)
{
    Cluster fleet(smallFleet(4, DispatchPolicy::WarmthAware, 300));
    const FleetReport &report = fleet.run();

    // Fleet billed time is accumulated independently of the ledgers;
    // the two aggregations must agree.
    const Seconds perMachine = report.sumMachineBilledSeconds();
    EXPECT_NEAR(report.billedCpuSeconds, perMachine,
                1e-9 * report.billedCpuSeconds);

    // And the ledgers are the machine reports' source of truth.
    double commercial = 0;
    for (unsigned i = 0; i < 4; ++i)
        commercial += fleet.ledger(i).totalCommercialUsd();
    EXPECT_DOUBLE_EQ(commercial, report.commercialUsd);
}

TEST(Cluster, ConservationCheckCatchesAPerturbedMachineRow)
{
    Cluster fleet(smallFleet(3, DispatchPolicy::LeastLoaded));
    const FleetReport &report = fleet.run();
    checkConservation(report); // run() already passed it

    FleetReport counts = report;
    ++counts.machines[1].completions;
    EXPECT_EXIT(checkConservation(counts), ::testing::ExitedWithCode(1),
                "fleet completions 200 but the machine rows sum to 201");

    FleetReport seconds = report;
    seconds.machines[2].billedCpuSeconds *= 1.001;
    EXPECT_EXIT(checkConservation(seconds),
                ::testing::ExitedWithCode(1),
                "fleet billed \\+ absorbed .* but the machine rows sum");
}

// Each flow death test perturbs the fleet total and one machine row
// alike, so the rows still sum to the fleet and only the flow breaks.

TEST(Cluster, FlowCheckCatchesADispatchWithoutAStart)
{
    Cluster fleet(smallFleet(3, DispatchPolicy::LeastLoaded));
    FleetReport report = fleet.run();
    ++report.dispatched;
    ++report.machines[0].dispatched;
    EXPECT_EXIT(checkConservation(report), ::testing::ExitedWithCode(1),
                "201 dispatched but [0-9]+ cold \\+ [0-9]+ warm starts");
}

TEST(Cluster, FlowCheckCatchesACompletionWithoutADispatch)
{
    Cluster fleet(smallFleet(3, DispatchPolicy::LeastLoaded));
    FleetReport report = fleet.run();
    ++report.completions;
    ++report.machines[0].completions;
    EXPECT_EXIT(checkConservation(report), ::testing::ExitedWithCode(1),
                "200 dispatched but 201 completed \\+ 0 killed");
}

TEST(Cluster, FlowCheckCatchesAKillNeitherRetriedNorAbandoned)
{
    ClusterConfig cfg = smallFleet(2, DispatchPolicy::LeastLoaded);
    cfg.faults.crashMtbf = 0.01;
    cfg.faults.restartDelay = 0.004;
    cfg.faults.retry = RetryPolicy::Drop;
    Cluster fleet(cfg);
    FleetReport report = fleet.run();
    ASSERT_GT(report.killedInvocations, 0u);
    ASSERT_EQ(report.abandoned, report.killedInvocations);
    --report.abandoned;
    EXPECT_EXIT(checkConservation(report), ::testing::ExitedWithCode(1),
                "[0-9]+ killed but 0 retried \\+ [0-9]+ abandoned");
}

using test::expectIdentical;
using test::serveFleet;

TEST(Cluster, FixedSeedReproducesIdenticalTotals)
{
    const ClusterConfig cfg = smallFleet(3, DispatchPolicy::WarmthAware);
    expectIdentical(serveFleet(cfg), serveFleet(cfg));
}

TEST(Cluster, ThreadedRunnerMatchesSerialBitExactly)
{
    auto serialCfg = smallFleet(4, DispatchPolicy::LeastLoaded, 300);
    serialCfg.threads = 1;
    auto threadedCfg = serialCfg;
    threadedCfg.threads = 4;
    expectIdentical(serveFleet(serialCfg), serveFleet(threadedCfg));
}

TEST(Cluster, WarmthAwareBeatsRoundRobinOnColdStarts)
{
    // Identical traffic (same seed/trace); only the routing differs.
    Cluster rr(smallFleet(4, DispatchPolicy::RoundRobin, 400));
    Cluster warmth(smallFleet(4, DispatchPolicy::WarmthAware, 400));
    const std::uint64_t rrCold = rr.run().coldStarts;
    const std::uint64_t warmthCold = warmth.run().coldStarts;
    EXPECT_LT(warmthCold, rrCold);
}

TEST(Cluster, ZeroKeepAliveMeansEveryStartIsCold)
{
    auto cfg = smallFleet(2, DispatchPolicy::WarmthAware);
    cfg.keepAlive = 0;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    EXPECT_EQ(report.warmStarts, 0u);
    EXPECT_EQ(report.coldStarts, report.dispatched);
}

TEST(Cluster, WarmInvocationSkipsStartup)
{
    Rng rng(1);
    const FunctionSpec &spec = tinySuite()[0];
    const auto cold = workload::makeInvocation(spec, rng);
    const auto warm = workload::makeWarmInvocation(spec, rng);
    EXPECT_LT(sim::totalInstructions(warm->phases()),
              sim::totalInstructions(cold->phases()));
    // Warm containers skip the startup, so there is no probe substrate.
    EXPECT_EQ(warm->probeWindow(), sim::Task::noProbe);
    EXPECT_GT(cold->probeWindow(), 0.0);
}

TEST(Cluster, AccessorsGuardAgainstMisuse)
{
    Cluster fleet(smallFleet(2, DispatchPolicy::RoundRobin));
    EXPECT_EXIT(fleet.report(), ::testing::ExitedWithCode(1),
                "not completed");
    EXPECT_EXIT(fleet.engine(7), ::testing::ExitedWithCode(1),
                "no machine");
    // Pre-run ledgers/engines would read as zero revenue; refuse.
    EXPECT_EXIT(fleet.ledger(0), ::testing::ExitedWithCode(1),
                "not completed");
    EXPECT_EXIT(fleet.engine(0), ::testing::ExitedWithCode(1),
                "not completed");
}

/** Synthetic calibration profile (same tables as test_pricing);
 *  machine name empty = wildcard unless the caller sets one. */
pricing::CalibrationProfile
syntheticProfile(const std::string &machine = "")
{
    pricing::CalibrationProfile profile;
    profile.machine = machine;
    pricing::CongestionTable &table = profile.congestion;
    for (Language lang : workload::allLanguages()) {
        pricing::ProbeReading base;
        // Far below any simulated startup CPI, so observed slowdowns
        // land above 1 and the (clamped) rates actually discount.
        base.privCpi = 0.2;
        base.sharedCpi = 0.05;
        base.instructions = 45e6;
        base.machineL3MissPerUs = 1.0;
        table.setBaseline(lang, base);
    }
    for (unsigned level : {2u, 4u, 6u, 8u}) {
        const double x = 1.0 + 0.05 * level;
        pricing::CongestionTable::Row row;
        row.level = level;
        row.reference.privSlowdown = 1.0 + 0.005 * level;
        row.reference.sharedSlowdown = x;
        row.reference.totalSlowdown = x;
        pricing::CongestionEntry e;
        e.privSlowdown = 1.0 + 0.005 * level;
        e.sharedSlowdown = x;
        e.totalSlowdown = x;
        e.l3MissPerUs = 10.0 * x;
        row.startups.assign(workload::allLanguages().size(), e);
        table.add(GeneratorKind::CtGen, row);
        for (pricing::CongestionEntry &startup : row.startups)
            startup.l3MissPerUs = 1000.0 * x;
        table.add(GeneratorKind::MbGen, row);
    }
    return profile;
}

/** Synthetic discount model (wildcard machine). */
pricing::DiscountModel
syntheticModel()
{
    return pricing::DiscountModel(syntheticProfile());
}

TEST(Cluster, DiscountModelPricesColdProbedInvocations)
{
    const pricing::DiscountModel model = syntheticModel();
    auto cfg = smallFleet(2, DispatchPolicy::WarmthAware);
    cfg.discountModels[testMachine()] = &model;
    cfg.probes = true;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    ASSERT_GT(report.coldStarts, 0u);
    ASSERT_GT(report.warmStarts, 0u);

    bool discounted = false;
    for (unsigned i = 0; i < 2; ++i) {
        for (const pricing::BillRecord &rec :
             fleet.ledger(i).records()) {
            EXPECT_GT(rec.commercialUsd, 0.0);
            if (rec.litmusUsd != rec.commercialUsd)
                discounted = true;
        }
    }
    // At least the cold, probed invocations went through the model.
    EXPECT_TRUE(discounted);

    // Conservation holds under Litmus pricing too.
    EXPECT_NEAR(report.billedCpuSeconds,
                report.sumMachineBilledSeconds(),
                1e-9 * report.billedCpuSeconds);
}

/** A slow 8-core Ice Lake cut for mixed fleets. */
const std::string &
testIcelake()
{
    static const std::string name = [] {
        sim::MachineConfig cfg =
            sim::MachineCatalog::get("icelake-4314");
        cfg.name = "test-icelake-8";
        cfg.cores = 8;
        sim::MachineCatalog::registerPreset(cfg);
        return cfg.name;
    }();
    return name;
}

ClusterConfig
mixedFleet(DispatchPolicy policy, std::uint64_t invocations = 300)
{
    ClusterConfig cfg = smallFleet(2, policy, invocations);
    cfg.fleet = {{testMachine(), 2}, {testIcelake(), 2}};
    return cfg;
}

TEST(Cluster, HeterogeneousFleetReportsPerTypeBreakdown)
{
    Cluster fleet(mixedFleet(DispatchPolicy::LeastLoaded));
    const FleetReport &report = fleet.run();

    // Machines are indexed group by group, each bound to its type.
    ASSERT_EQ(report.machines.size(), 4u);
    EXPECT_EQ(report.machines[0].type, testMachine());
    EXPECT_EQ(report.machines[1].type, testMachine());
    EXPECT_EQ(report.machines[2].type, testIcelake());
    EXPECT_EQ(report.machines[3].type, testIcelake());

    ASSERT_EQ(report.types.size(), 2u);
    EXPECT_EQ(report.types[0].type, testMachine());
    EXPECT_EQ(report.types[1].type, testIcelake());
    EXPECT_EQ(report.types[0].machines, 2u);
    EXPECT_EQ(report.types[1].machines, 2u);

    // The type breakdown loses nothing: counts exactly, money and
    // billed seconds to association error.
    std::uint64_t dispatched = 0, completions = 0;
    Seconds billed = 0;
    double commercial = 0;
    for (const TypeReport &t : report.types) {
        dispatched += t.dispatched;
        completions += t.completions;
        billed += t.billedCpuSeconds;
        commercial += t.commercialUsd;
        EXPECT_GT(t.dispatched, 0u);
    }
    EXPECT_EQ(dispatched, report.dispatched);
    EXPECT_EQ(completions, report.completions);
    EXPECT_NEAR(billed, report.billedCpuSeconds,
                1e-9 * report.billedCpuSeconds);
    EXPECT_NEAR(commercial, report.commercialUsd,
                1e-12 + 1e-9 * report.commercialUsd);
}

TEST(Cluster, TypeBreakdownCheckCatchesAPerturbedTypeRow)
{
    // A Litmus-priced two-type fleet; each copy perturbs one type row
    // while the machine rows still sum to the fleet.
    const pricing::DiscountModel model = syntheticModel();
    ClusterConfig cfg = mixedFleet(DispatchPolicy::LeastLoaded);
    cfg.discountModels[testMachine()] = &model;
    cfg.probes = true;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    checkConservation(report); // run() already passed it
    ASSERT_EQ(report.types.size(), 2u);
    ASSERT_GT(report.litmusUsd, 0.0);

    FleetReport machines = report;
    ++machines.types[1].machines;
    EXPECT_EXIT(checkConservation(machines), ::testing::ExitedWithCode(1),
                "fleet has 4 machines but the type rows count 5");

    FleetReport dispatched = report;
    --dispatched.types[0].dispatched;
    EXPECT_EXIT(checkConservation(dispatched),
                ::testing::ExitedWithCode(1),
                "fleet dispatched [0-9]+ but the type rows sum to");

    FleetReport completions = report;
    ++completions.types[1].completions;
    EXPECT_EXIT(checkConservation(completions),
                ::testing::ExitedWithCode(1),
                "fleet completions [0-9]+ but the type rows sum to");

    FleetReport billed = report;
    billed.types[0].billedCpuSeconds *= 1.0001;
    EXPECT_EXIT(checkConservation(billed), ::testing::ExitedWithCode(1),
                "fleet billed seconds .* but the type rows sum to");

    FleetReport commercial = report;
    commercial.types[1].commercialUsd *= 0.9999;
    EXPECT_EXIT(checkConservation(commercial),
                ::testing::ExitedWithCode(1),
                "fleet commercial USD .* but the type rows sum to");

    FleetReport litmus = report;
    litmus.types[0].litmusUsd *= 1.0001;
    EXPECT_EXIT(checkConservation(litmus), ::testing::ExitedWithCode(1),
                "fleet Litmus USD .* but the type rows sum to");
}

TEST(Cluster, HeterogeneousThreadedRunnerIsDeterministic)
{
    // Unpriced, and Litmus-priced with a model bound per type and
    // probes on: each must serve bit for bit at 1, 4 and 16 threads
    // and under the exact-quantum oracle.
    const pricing::DiscountModel cascadeModel(
        syntheticProfile(testMachine()));
    const pricing::DiscountModel icelakeModel(
        syntheticProfile(testIcelake()));
    for (const bool priced : {false, true}) {
        SCOPED_TRACE(priced ? "priced" : "unpriced");
        ClusterConfig cfg = mixedFleet(DispatchPolicy::CostAware);
        ASSERT_EQ(cfg.threads, 1u);
        if (priced) {
            cfg.discountModels[testMachine()] = &cascadeModel;
            cfg.discountModels[testIcelake()] = &icelakeModel;
            cfg.probes = true;
        }
        const test::RunOutcome serial = serveFleet(cfg);
        for (unsigned threads : {4u, 16u}) {
            ClusterConfig threaded = cfg;
            threaded.threads = threads;
            expectIdentical(serial, serveFleet(threaded));
        }
        ClusterConfig exact = cfg;
        exact.exactQuantum = true;
        expectIdentical(serial, serveFleet(exact));

        if (priced) {
            // Pricing engaged: every type discounts, none goes free.
            for (const TypeReport &t : serial.report.types) {
                EXPECT_GT(t.litmusUsd, 0.0) << t.type;
                EXPECT_LT(t.litmusUsd, t.commercialUsd) << t.type;
            }
            EXPECT_GT(serial.report.litmusUsd, 0.0);
            EXPECT_LT(serial.report.litmusUsd,
                      serial.report.commercialUsd);
        }
    }
}

TEST(Cluster, CostAwareShiftsLoadTowardFasterMachines)
{
    // Same trace; cost-aware must put more work on the higher-clock
    // cascade cut than blind rotation does.
    Cluster rr(mixedFleet(DispatchPolicy::RoundRobin, 400));
    Cluster cost(mixedFleet(DispatchPolicy::CostAware, 400));
    const std::uint64_t rrCascade = rr.run().types[0].dispatched;
    const std::uint64_t costCascade = cost.run().types[0].dispatched;
    EXPECT_GT(costCascade, rrCascade);
}

TEST(Cluster, PerTypeDiscountModelsPriceOnlyTheirType)
{
    const pricing::DiscountModel model = syntheticModel();
    auto cfg = mixedFleet(DispatchPolicy::LeastLoaded);
    cfg.discountModels[testMachine()] = &model; // icelake unpriced
    cfg.probes = true;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();

    ASSERT_EQ(report.types.size(), 2u);
    ASSERT_GT(report.types[0].coldStarts, 0u);
    // The modelled type discounts; the bare type bills commercially.
    EXPECT_LT(report.types[0].litmusUsd, report.types[0].commercialUsd);
    EXPECT_EQ(report.types[1].litmusUsd, report.types[1].commercialUsd);
}

TEST(Cluster, DiscountModelMachineMismatchIsFatal)
{
    // A profile calibrated on the cascade cut must not be bound to
    // the icelake group.
    const pricing::DiscountModel model(syntheticProfile(testMachine()));
    auto cfg = mixedFleet(DispatchPolicy::LeastLoaded);
    cfg.discountModels[testIcelake()] = &model;
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "calibrated on");
}

TEST(Cluster, AliasFleetSpecBindsCanonicallyKeyedModels)
{
    // Fleet spec spelled with an alias, model keyed by the canonical
    // name: the machines must still bind (and discount).
    const pricing::DiscountModel model = syntheticModel();
    auto cfg = smallFleet(2, DispatchPolicy::WarmthAware);
    cfg.fleet = {{"icelake", 2}}; // alias of icelake-4314
    cfg.discountModels["icelake-4314"] = &model;
    cfg.probes = true;
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    ASSERT_EQ(report.types.size(), 1u);
    EXPECT_EQ(report.types[0].type, "icelake-4314");
    EXPECT_LT(report.types[0].litmusUsd,
              report.types[0].commercialUsd);
}

TEST(Cluster, SplitTypeGroupsMergeIntoOneTypeReport)
{
    // The same type in two non-adjacent groups gets one merged row.
    auto cfg = mixedFleet(DispatchPolicy::RoundRobin);
    cfg.fleet = {{testMachine(), 1},
                 {testIcelake(), 2},
                 {testMachine(), 1}};
    Cluster fleet(cfg);
    const FleetReport &report = fleet.run();
    ASSERT_EQ(report.types.size(), 2u);
    EXPECT_EQ(report.types[0].type, testMachine());
    EXPECT_EQ(report.types[0].machines, 2u);
    EXPECT_EQ(report.types[1].type, testIcelake());
    EXPECT_EQ(report.types[1].machines, 2u);
}

TEST(Cluster, DiscountModelForAbsentTypeIsFatal)
{
    const pricing::DiscountModel model = syntheticModel();
    auto cfg = smallFleet(2, DispatchPolicy::LeastLoaded);
    cfg.discountModels["cascade-5218"] = &model; // not in the fleet
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "not in the fleet spec");
}

TEST(Cluster, DuplicateModelsUnderAliasAndCanonicalNameAreFatal)
{
    const pricing::DiscountModel a = syntheticModel();
    const pricing::DiscountModel b = syntheticModel();
    auto cfg = smallFleet(2, DispatchPolicy::LeastLoaded);
    cfg.fleet = {{"icelake-4314", 2}};
    cfg.discountModels["icelake-4314"] = &a;
    cfg.discountModels["icelake"] = &b; // same type, different model
    EXPECT_EXIT(Cluster{cfg}, ::testing::ExitedWithCode(1),
                "two discount models");
}

TEST(FleetReportPrinter, TwoTypeLitmusFleetWithACrashMatchesGolden)
{
    // Two machine types under Litmus pricing and one scripted crash,
    // so the type rows and the chaos footer both print.
    const pricing::DiscountModel model = syntheticModel();
    auto cfg = mixedFleet(DispatchPolicy::LeastLoaded, 120);
    cfg.discountModels[testMachine()] = &model;
    cfg.discountModels[testIcelake()] = &model;
    cfg.probes = true;
    cfg.billing.usdPerGiBSecond = 1.0; // dollars big enough to print
    cfg.faults.crashAt = {{0.005, 0}};
    cfg.faults.restartDelay = 0.004;
    cfg.faults.retry = RetryPolicy::RetryOnce;
    Cluster fleet(cfg);
    std::ostringstream out;
    scenario::printFleetReport(out, fleet.run());
    ASSERT_GT(fleet.report().killedInvocations, 0u);
    // The whole text, byte for byte: rows, footers and spacing.
    const std::string golden =
        "machine  type            dispatched  cold  warm  billed s  commercial $  litmus $  mean lat ms  \n"
        "-------  --------------  ----------  ----  ----  --------  ------------  --------  -----------  \n"
        "0        test-cascade-8  27          10    17    0.047     0.011808      0.007249  1.981        \n"
        "1        test-cascade-8  50          8     42    0.075     0.018803      0.013536  1.526        \n"
        "2        test-icelake-8  24          8     16    0.051     0.012707      0.007438  2.500        \n"
        "3        test-icelake-8  22          8     14    0.049     0.012254      0.006992  2.623        \n"
        "type     test-cascade-8  77          18    59    0.122     0.030611      0.020785  32.1% disc   \n"
        "type     test-icelake-8  46          16    30    0.100     0.024961      0.014430  42.2% disc   \n"
        "fleet                    123         34    89    0.222     0.055572      0.035216  2.013        \n"
        "throughput 4138 inv/s  cold-start rate 27.6%  fleet discount 36.6%  makespan 0.029 s  rejected 0\n"
        "crashes 1  killed 3  retried 3  abandoned 0  lost 0.009 s  absorbed 0.009 s ($0.002250)\n"
        "scheduler barriers 29 (elided 0)  idle quanta skipped 479  events arrival 120 retry 3 fault 2 keepalive 0 progress 28  machine visits 431\n"
        "arrivals poisson  generated 120  pulled 120  buffered max 1\n";
    EXPECT_EQ(out.str(), golden);
}

} // namespace
} // namespace litmus::cluster
