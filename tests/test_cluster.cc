/**
 * @file
 * Tests for the fleet serving layer: dispatch policies, open-loop
 * fan-in, warm-container reuse, billing conservation, and determinism
 * of the threaded epoch runner.
 */

#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster.h"
#include "core/calibration.h"
#include "poisson_traffic.h"
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
            workload::Phase body;
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
    for (DispatchPolicy policy : allPolicies())
        EXPECT_EQ(policyByName(policyName(policy)), policy);
    EXPECT_EQ(policyByName("rr"), DispatchPolicy::RoundRobin);
    EXPECT_EQ(policyByName("ll"), DispatchPolicy::LeastLoaded);
    EXPECT_EQ(policyByName("warmth"), DispatchPolicy::WarmthAware);
    EXPECT_EXIT(policyByName("fastest"), ::testing::ExitedWithCode(1),
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
    EXPECT_EQ(policyByName("cost"), DispatchPolicy::CostAware);
    EXPECT_EQ(policyByName("cost-aware"), DispatchPolicy::CostAware);
    EXPECT_EQ(policyName(DispatchPolicy::CostAware), "cost-aware");
    EXPECT_EQ(allPolicies().size(), 4u);
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

/** Totals that must be bit-identical between equivalent runs. */
struct Totals
{
    Seconds billed;
    std::uint64_t cold;
    std::uint64_t completions;
    double commercial;
    double latency;
    Seconds makespan;
};

Totals
totalsOf(const FleetReport &report)
{
    return {report.billedCpuSeconds, report.coldStarts,
            report.completions,      report.commercialUsd,
            report.meanLatency,      report.makespan};
}

void
expectIdentical(const Totals &a, const Totals &b)
{
    EXPECT_EQ(a.billed, b.billed);
    EXPECT_EQ(a.cold, b.cold);
    EXPECT_EQ(a.completions, b.completions);
    EXPECT_EQ(a.commercial, b.commercial);
    EXPECT_EQ(a.latency, b.latency);
    EXPECT_EQ(a.makespan, b.makespan);
}

TEST(Cluster, FixedSeedReproducesIdenticalTotals)
{
    Cluster a(smallFleet(3, DispatchPolicy::WarmthAware));
    Cluster b(smallFleet(3, DispatchPolicy::WarmthAware));
    expectIdentical(totalsOf(a.run()), totalsOf(b.run()));
}

TEST(Cluster, ThreadedRunnerMatchesSerialBitExactly)
{
    auto serialCfg = smallFleet(4, DispatchPolicy::LeastLoaded, 300);
    serialCfg.threads = 1;
    auto threadedCfg = serialCfg;
    threadedCfg.threads = 4;

    Cluster serial(serialCfg);
    Cluster threaded(threadedCfg);
    expectIdentical(totalsOf(serial.run()), totalsOf(threaded.run()));
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
    EXPECT_LT(warm->program().totalInstructions(),
              cold->program().totalInstructions());
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
    pricing::CongestionTable &congestion = profile.congestion;
    pricing::PerformanceTable &performance = profile.performance;
    for (Language lang : workload::allLanguages()) {
        pricing::ProbeReading base;
        // Far below any simulated startup CPI, so observed slowdowns
        // land above 1 and the (clamped) rates actually discount.
        base.privCpi = 0.2;
        base.sharedCpi = 0.05;
        base.instructions = 45e6;
        base.machineL3MissPerUs = 1.0;
        congestion.setBaseline(lang, base);
    }
    for (unsigned level : {2u, 4u, 6u, 8u}) {
        const double x = 1.0 + 0.05 * level;
        for (Language lang : workload::allLanguages()) {
            pricing::CongestionEntry e;
            e.privSlowdown = 1.0 + 0.005 * level;
            e.sharedSlowdown = x;
            e.totalSlowdown = x;
            e.l3MissPerUs = 10.0 * x;
            congestion.add(lang, GeneratorKind::CtGen, level, e);
            e.l3MissPerUs = 1000.0 * x;
            congestion.add(lang, GeneratorKind::MbGen, level, e);
        }
        pricing::PerformanceEntry p;
        p.privSlowdown = 1.0 + 0.005 * level;
        p.sharedSlowdown = x;
        p.totalSlowdown = x;
        performance.add(GeneratorKind::CtGen, level, p);
        performance.add(GeneratorKind::MbGen, level, p);
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

TEST(Cluster, HeterogeneousThreadedRunnerIsDeterministic)
{
    auto serialCfg = mixedFleet(DispatchPolicy::CostAware);
    serialCfg.threads = 1;
    auto threadedCfg = serialCfg;
    threadedCfg.threads = 4;
    Cluster serial(serialCfg);
    Cluster threaded(threadedCfg);
    expectIdentical(totalsOf(serial.run()), totalsOf(threaded.run()));
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

} // namespace
} // namespace litmus::cluster
