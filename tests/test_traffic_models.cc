/**
 * @file
 * Tests for the scenario layer: pluggable traffic models (empirical
 * rate, seed determinism, trace replay exactness, malformed input),
 * declarative scenario specs, and the ScenarioRunner's determinism.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "common/name_table.h"
#include "scenario/scenario_runner.h"
#include "sim/machine_catalog.h"
#include "workload/suite.h"

namespace litmus::scenario
{
namespace
{

using cluster::Invocation;
using workload::FunctionSpec;

std::vector<const FunctionSpec *>
onePool()
{
    return {&workload::functionByName("float-py")};
}

std::vector<Invocation>
generate(const TrafficSpec &spec, std::uint64_t seed = 42)
{
    Rng rng(seed);
    return makeTrafficModel(spec)->generate(rng, onePool());
}

/** Measured mean arrival rate over the generated span. */
double
empiricalRate(const std::vector<Invocation> &trace)
{
    EXPECT_FALSE(trace.empty());
    const Seconds span = trace.back().arrival;
    return span > 0 ? static_cast<double>(trace.size()) / span : 0.0;
}

std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream file(path);
    file << text;
    return path;
}

// ---- empirical rate per model ----------------------------------------

TEST(TrafficModels, PoissonHitsConfiguredRate)
{
    TrafficSpec spec;
    spec.arrivalsPerSecond = 1000;
    spec.invocations = 20000;
    const auto trace = generate(spec);
    ASSERT_EQ(trace.size(), spec.invocations);
    EXPECT_NEAR(empiricalRate(trace), 1000.0, 50.0);
}

TEST(TrafficModels, DiurnalHitsMeanRateAndModulates)
{
    TrafficSpec spec;
    spec.model = "diurnal";
    spec.arrivalsPerSecond = 1000;
    spec.invocations = 20000;
    spec.diurnalPeriod = 1.0;
    spec.diurnalAmplitude = 1.0;
    const auto trace = generate(spec);
    ASSERT_EQ(trace.size(), spec.invocations);
    // Thinning preserves the long-run mean rate...
    EXPECT_NEAR(empiricalRate(trace), 1000.0, 60.0);
    // ...while the instantaneous rate follows the sinusoid: the
    // quarter-period around the peak must dwarf the trough.
    std::uint64_t peak = 0, trough = 0;
    for (const Invocation &inv : trace) {
        const double phase =
            inv.arrival / spec.diurnalPeriod -
            std::floor(inv.arrival / spec.diurnalPeriod);
        if (phase >= 0.15 && phase < 0.35)
            ++peak;
        if (phase >= 0.65 && phase < 0.85)
            ++trough;
    }
    EXPECT_GT(peak, 8 * std::max<std::uint64_t>(trough, 1));
}

TEST(TrafficModels, BurstHitsMeanRateAndClusters)
{
    TrafficSpec spec;
    spec.model = "burst";
    spec.arrivalsPerSecond = 1000;
    spec.invocations = 20000;
    spec.burstOn = 0.05;
    spec.burstOff = 0.15;
    const auto trace = generate(spec);
    ASSERT_EQ(trace.size(), spec.invocations);
    // Long-run mean is solved to match the configured rate.
    EXPECT_NEAR(empiricalRate(trace), 1000.0, 120.0);
    // With no idle trickle the on-state rate is (on+off)/on = 4x the
    // mean, so inter-arrival gaps are far burstier than Poisson: the
    // median gap must sit well below the mean gap.
    std::vector<double> gaps;
    for (std::size_t i = 1; i < trace.size(); ++i)
        gaps.push_back(trace[i].arrival - trace[i - 1].arrival);
    std::sort(gaps.begin(), gaps.end());
    const double median = gaps[gaps.size() / 2];
    const double mean = trace.back().arrival / gaps.size();
    EXPECT_LT(median, 0.5 * mean);
}

TEST(TrafficModels, DurationStopsTheStream)
{
    TrafficSpec spec;
    spec.arrivalsPerSecond = 1000;
    spec.invocations = 0;
    spec.duration = 2.0;
    const auto trace = generate(spec);
    EXPECT_NEAR(static_cast<double>(trace.size()), 2000.0, 200.0);
    EXPECT_LT(trace.back().arrival, 2.0);
}

// ---- determinism ------------------------------------------------------

TEST(TrafficModels, SameSeedSameTraceEveryModel)
{
    const std::string tracePath = writeTempFile(
        "det_trace.csv", "0.01,float-py\n0.02,\n0.05,aes-go\n");
    for (const std::string model :
         {"poisson", "diurnal", "burst", "trace"}) {
        TrafficSpec spec;
        spec.model = model;
        spec.arrivalsPerSecond = 2000;
        spec.invocations = 500;
        spec.tracePath = tracePath;
        const auto a = generate(spec, 7);
        const auto b = generate(spec, 7);
        ASSERT_EQ(a.size(), b.size()) << model;
        for (std::size_t i = 0; i < a.size(); ++i) {
            // Bit-exact timestamps and identical function choices.
            EXPECT_EQ(a[i].arrival, b[i].arrival) << model;
            EXPECT_EQ(a[i].spec, b[i].spec) << model;
            EXPECT_EQ(a[i].seq, i) << model;
        }
        if (model != "trace") {
            const auto c = generate(spec, 8);
            EXPECT_NE(a.front().arrival, c.front().arrival) << model;
        }
    }
}

TEST(TrafficModels, ArrivalsAreNondecreasing)
{
    for (const std::string model : {"poisson", "diurnal", "burst"}) {
        TrafficSpec spec;
        spec.model = model;
        spec.arrivalsPerSecond = 5000;
        spec.invocations = 3000;
        const auto trace = generate(spec);
        for (std::size_t i = 1; i < trace.size(); ++i)
            ASSERT_GE(trace[i].arrival, trace[i - 1].arrival) << model;
    }
}

// ---- trace replay -----------------------------------------------------

TEST(TraceReplay, ExactTimestampsAndNames)
{
    const std::string path = writeTempFile("replay.csv",
                                           "# recorded log\n"
                                           "arrival_seconds,function\n"
                                           "0.5,float-py\n"
                                           "1.0,\n"
                                           "2.25,aes-go\n");
    TrafficSpec spec;
    spec.model = "trace";
    spec.tracePath = path;
    spec.traceRateScale = 2.0;
    const auto trace = generate(spec);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace[0].arrival, 0.5 / 2.0);
    EXPECT_EQ(trace[1].arrival, 1.0 / 2.0);
    EXPECT_EQ(trace[2].arrival, 2.25 / 2.0);
    EXPECT_EQ(trace[0].spec->name, "float-py");
    // The empty function field samples the (one-entry) pool.
    EXPECT_EQ(trace[1].spec->name, "float-py");
    EXPECT_EQ(trace[2].spec->name, "aes-go");
    EXPECT_EQ(trace[2].seq, 2u);
}

TEST(TraceReplay, RowAndDurationCaps)
{
    const std::string path = writeTempFile(
        "caps.csv", "0.1,float-py\n0.2,float-py\n0.3,float-py\n");
    TrafficSpec spec;
    spec.model = "trace";
    spec.tracePath = path;
    spec.invocations = 2;
    EXPECT_EQ(generate(spec).size(), 2u);
    spec.invocations = 0;
    spec.duration = 0.3;
    const auto byDuration = generate(spec);
    ASSERT_EQ(byDuration.size(), 2u);
    EXPECT_LT(byDuration.back().arrival, 0.3);
}

TEST(TraceReplayDeath, MalformedTraces)
{
    TrafficSpec spec;
    spec.model = "trace";
    spec.tracePath = "/nonexistent/trace.csv";
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "cannot read");

    spec.tracePath =
        writeTempFile("bad_stamp.csv", "0.1,float-py\noops,aes-go\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "bad arrival timestamp");

    spec.tracePath = writeTempFile(
        "out_of_order.csv", "0.2,float-py\n0.1,float-py\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "out of order");

    spec.tracePath =
        writeTempFile("neg.csv", "-0.5,float-py\n0.1,float-py\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "negative arrival");

    spec.tracePath =
        writeTempFile("unknown_fn.csv", "0.1,frobnicate-py\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "frobnicate-py");

    spec.tracePath = writeTempFile("empty.csv", "# nothing here\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "no arrivals");

    // strtod parses "nan"/"inf", but NaN would defeat the ordering
    // checks downstream — non-finite timestamps are malformed, even
    // on the first row, where the header allowance only covers
    // fields strtod can make nothing of.
    spec.tracePath = writeTempFile(
        "nan.csv", "nan,float-py\n0.1,float-py\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "bad arrival timestamp");
    spec.tracePath =
        writeTempFile("inf.csv", "0.1,float-py\ninf,float-py\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "bad arrival timestamp");
    spec.tracePath = writeTempFile(
        "units.csv", "0.5s,float-py\n1.0s,float-py\n");
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1), "bad arrival timestamp");
}

TEST(TraceReplay, PaddedColumnsParse)
{
    // Space-padded timestamp columns (common in exported logs) must
    // parse like the trimmed function field does.
    const std::string path = writeTempFile(
        "padded.csv", "0.1 ,float-py\n0.2\t, aes-go \n");
    TrafficSpec spec;
    spec.model = "trace";
    spec.tracePath = path;
    const auto trace = generate(spec);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].arrival, 0.1);
    EXPECT_EQ(trace[1].spec->name, "aes-go");
}

// ---- built-in models ------------------------------------------------

TEST(TrafficRegistry, BuiltinsPresentAndUnknownFatal)
{
    for (const char *name : {"burst", "diurnal", "poisson"}) {
        TrafficSpec spec;
        spec.model = name;
        EXPECT_EQ(makeTrafficModel(spec)->name(), name);
    }
    TrafficSpec spec;
    spec.model = "fractal";
    EXPECT_EXIT((void)makeTrafficModel(spec),
                ::testing::ExitedWithCode(1),
                "unknown traffic model 'fractal' \\(known: azure, burst, "
                "diurnal, poisson, trace\\)");
}

// ---- traffic spec validation ------------------------------------------

TEST(TrafficSpecDeath, RejectsNonsense)
{
    TrafficSpec spec;
    spec.arrivalsPerSecond = -1;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "arrival rate must be positive");
    spec = TrafficSpec{};
    spec.invocations = 0;
    spec.duration = 0;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "stop condition");
    spec = TrafficSpec{};
    spec.duration = std::numeric_limits<double>::infinity();
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "duration must be finite");
    spec = TrafficSpec{};
    spec.arrivalsPerSecond =
        std::numeric_limits<double>::quiet_NaN();
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "arrival rate must be positive and finite");
    spec = TrafficSpec{};
    spec.diurnalAmplitude = 1.5;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "diurnal.amplitude");
    spec = TrafficSpec{};
    spec.burstOn = 0;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "burst.on");
    spec = TrafficSpec{};
    spec.burstIdleFraction = 2;
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "burst.idle_fraction");
    spec = TrafficSpec{};
    spec.model = "trace";
    EXPECT_EXIT(spec.validate(), ::testing::ExitedWithCode(1),
                "trace.path");
}

// ---- scenario specs ---------------------------------------------------

TEST(ScenarioSpec, ParsesEveryKey)
{
    const ScenarioSpec spec = ScenarioSpec::fromString(
        "# a scenario\n"
        "fleet = cascade-5218:2,icelake-4314:3\n"
        "policy = cost-aware\n"
        "traffic = burst\n"
        "rate = 1234.5\n"
        "invocations = 777\n"
        "duration = 9\n"
        "burst.on = 0.25\n"
        "burst.off = 0.75\n"
        "burst.idle_fraction = 0.1\n"
        "functions = float-py,aes-go\n"
        "seed = 99\n"
        "epoch_us = 500\n"
        "keepalive = 5\n"
        "threads = 3\n"
        "drain_cap = 120\n"
        "sharing_factor = 1.5\n"
        "probes = true\n");
    ASSERT_EQ(spec.fleet.size(), 2u);
    EXPECT_EQ(spec.fleet[0].machine, "cascade-5218");
    EXPECT_EQ(spec.fleet[1].count, 3u);
    EXPECT_EQ(spec.policy, cluster::DispatchPolicy::CostAware);
    EXPECT_EQ(spec.traffic.model, "burst");
    EXPECT_DOUBLE_EQ(spec.traffic.arrivalsPerSecond, 1234.5);
    EXPECT_EQ(spec.traffic.invocations, 777u);
    EXPECT_DOUBLE_EQ(spec.traffic.duration, 9.0);
    EXPECT_DOUBLE_EQ(spec.traffic.burstOn, 0.25);
    EXPECT_DOUBLE_EQ(spec.traffic.burstIdleFraction, 0.1);
    EXPECT_EQ(spec.functionPool().size(), 2u);
    EXPECT_EQ(spec.seed, 99u);
    EXPECT_DOUBLE_EQ(spec.epoch, 500e-6);
    EXPECT_EQ(spec.threads, 3u);
    ASSERT_TRUE(spec.probes.has_value());
    EXPECT_TRUE(*spec.probes);
    spec.traffic.validate();
}

TEST(ScenarioSpec, TraceDropsTheDefaultArrivalCap)
{
    // A replay scenario that never mentions `invocations` must play
    // the whole file, not truncate at the generative 10000 default.
    EXPECT_EQ(ScenarioSpec::fromString("traffic = trace\n"
                                       "trace.path = x.csv\n")
                  .traffic.invocations,
              0u);
    // An explicit cap survives in either key order.
    EXPECT_EQ(ScenarioSpec::fromString("invocations = 500\n"
                                       "traffic = trace\n")
                  .traffic.invocations,
              500u);
    EXPECT_EQ(ScenarioSpec::fromString("traffic = trace\n"
                                       "invocations = 500\n")
                  .traffic.invocations,
              500u);
}

TEST(ScenarioSpec, BuilderChainsAndNamedSetsResolve)
{
    ScenarioSpec spec;
    spec.set("traffic", "diurnal").set("rate", "3000");
    EXPECT_EQ(spec.traffic.model, "diurnal");
    EXPECT_DOUBLE_EQ(spec.traffic.arrivalsPerSecond, 3000.0);
    EXPECT_EQ(ScenarioSpec().set("functions", "test").functionPool(),
              workload::testSet());
    EXPECT_EQ(ScenarioSpec().functionPool(), workload::allFunctions());
    EXPECT_EQ(ScenarioSpec().set("functions", "reference").functionPool(),
              workload::referenceSet());
    EXPECT_EQ(ScenarioSpec().set("functions", "memory").functionPool(),
              workload::memoryIntensiveSet());
}

TEST(ScenarioSpec, KnownKeysListTheTableSetDispatchesOn)
{
    // Sorted, each key once, each accepted by set(), and exactly the
    // listing an unknown key prints.
    const std::vector<std::string> keys = ScenarioSpec::knownKeys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()), keys.end());
    const std::map<std::string, std::string> samples = {
        {"fault.billing", "tenant-pays"}, {"fault.blind.at", "0.5@0"},
        {"fault.crash.at", "0.5@0"},      {"fault.retry", "drop"},
        {"fault.slow.at", "0.5@0"},       {"fleet", "cascade-5218:1"},
        {"functions", "all"},             {"policy", "cost"},
        {"traffic", "poisson"},
    };
    for (const std::string &key : keys) {
        const auto sample = samples.find(key);
        ScenarioSpec().set(key,
                           sample == samples.end() ? "1" : sample->second);
    }
    EXPECT_EXIT((void)ScenarioSpec().set("warp_speed", "9"),
                ::testing::ExitedWithCode(1),
                "unknown scenario key 'warp_speed' \\(known: " +
                    joinNames(keys) + "\\)");
}

TEST(ScenarioSpecDeath, UnsignedKeysRejectWraparound)
{
    // 2^32 + 1 would cast to 1: every unsigned key refuses instead,
    // naming itself.
    EXPECT_EXIT((void)ScenarioSpec::fromString("threads = 4294967297\n"),
                ::testing::ExitedWithCode(1),
                "scenario key 'threads' must be <= 4294967295");
    EXPECT_EXIT(
        (void)ScenarioSpec::fromString("calibration_levels = 4294967296\n"),
        ::testing::ExitedWithCode(1),
        "scenario key 'calibration_levels' must be <= 4294967295");
    EXPECT_EXIT(
        (void)ScenarioSpec::fromString("fault.retry.max = 4294967297\n"),
        ::testing::ExitedWithCode(1),
        "scenario key 'fault.retry.max' must be <= 4294967295");
    EXPECT_EXIT(
        (void)ScenarioSpec::fromString("fleet = cascade-5218:4294967297\n"),
        ::testing::ExitedWithCode(1),
        "fleet spec: machine count '4294967297'.*must be <= 4294967295");
    // The largest representable value still parses where no tighter
    // ceiling applies; `threads` has one (ClusterConfig::kMaxThreads).
    EXPECT_EQ(ScenarioSpec::fromString("calibration_levels = 4294967295\n")
                  .calibrationLevels,
              4294967295u);
    EXPECT_EXIT((void)ScenarioSpec::fromString("threads = 4294967295\n"),
                ::testing::ExitedWithCode(1),
                "scenario key 'threads' must be <= 1024");
}

TEST(ScenarioSpecDeath, SubNanosecondEpochIsFatal)
{
    // 0.0001 us is a tenth of a nanosecond: zero engine quanta.
    EXPECT_EXIT(
        {
            ScenarioRunner runner(
                ScenarioSpec::fromString("epoch_us = 0.0001\n"));
        },
        ::testing::ExitedWithCode(1), "rounds to zero engine quanta");
}

TEST(ScenarioSpecDeath, ExactQuantumIsNotAScenarioKey)
{
    // The differential oracle is ClusterConfig::exactQuantum, set by
    // tests and benches on a copy of the runner's config; a scenario
    // file naming it is a typo like any other, located by file:line.
    const std::string path =
        writeTempFile("exact_quantum.scenario", "seed = 3\n"
                                                "exact_quantum = yes\n");
    EXPECT_EXIT((void)ScenarioSpec::fromFile(path),
                ::testing::ExitedWithCode(1),
                "exact_quantum\\.scenario:2: unknown scenario key "
                "'exact_quantum'");
}

TEST(ScenarioSpecDeath, MalformedScenarios)
{
    EXPECT_EXIT((void)ScenarioSpec::fromString("warp_speed = 9\n"),
                ::testing::ExitedWithCode(1),
                "unknown scenario key 'warp_speed'");
    EXPECT_EXIT((void)ScenarioSpec::fromString("rate = fast\n"),
                ::testing::ExitedWithCode(1),
                "expects a finite number");
    EXPECT_EXIT((void)ScenarioSpec::fromString("duration = inf\n"),
                ::testing::ExitedWithCode(1),
                "expects a finite number");
    EXPECT_EXIT((void)ScenarioSpec::fromString("invocations = -4\n"),
                ::testing::ExitedWithCode(1), "must be >= 0");
    EXPECT_EXIT((void)ScenarioSpec::fromString("calibrate = maybe\n"),
                ::testing::ExitedWithCode(1), "expects a boolean");
    EXPECT_EXIT((void)ScenarioSpec::fromString("fleet = cascade:zero\n"),
                ::testing::ExitedWithCode(1),
                "<config>:1: fleet spec: machine count 'zero' in "
                "'cascade:zero' expects an integer");
    EXPECT_EXIT((void)ScenarioSpec::fromString("functions = nope-py\n")
                    .functionPool(),
                ::testing::ExitedWithCode(1), "nope-py");
    EXPECT_EXIT((void)ScenarioSpec::fromFile("/nonexistent.scenario"),
                ::testing::ExitedWithCode(1), "");
}

TEST(ScenarioSpecDeath, ValuesNameTheirLine)
{
    // A bad value is located like a bad key: at its file:line.
    const auto dies = [](const std::string &name, const std::string &line2,
                         const std::string &message) {
        const std::string path =
            writeTempFile(name, "seed = 3\n" + line2 + "\n");
        EXPECT_EXIT((void)ScenarioSpec::fromFile(path),
                    ::testing::ExitedWithCode(1),
                    name + ":2: " + message)
            << line2;
    };
    dies("rate.scenario", "rate = fast",
         "scenario key 'rate' expects a finite number, got 'fast'");
    dies("seed.scenario", "fault.seed = 18446744073709551616",
         "scenario key 'fault\\.seed' expects an integer");
    dies("fleet.scenario", "fleet = cascade-5218:0",
         "fleet spec: machine count '0' in 'cascade-5218:0' must be >= 1");
    dies("machine.scenario", "fleet = cascade-5218:1,nosuch:2",
         "MachineCatalog: unknown machine 'nosuch' \\(catalog: cascade-5218,");
    // The serving ranges are checked in each key's setter.
    dies("epoch.scenario", "epoch_us = 0",
         "scenario key 'epoch_us' must be positive, got 0");
    dies("keepalive.scenario", "keepalive = -1",
         "scenario key 'keepalive' must be >= 0, got -1");
    dies("drain.scenario", "drain_cap = 0",
         "scenario key 'drain_cap' must be positive, got 0");
    dies("sharing.scenario", "sharing_factor = 0",
         "scenario key 'sharing_factor' must be positive, got 0");
    dies("functions.scenario", "functions = float-py,nope-py",
         "scenario key 'functions': unknown function 'nope-py'");
    dies("crash.scenario", "fault.crash.at = 0.5@x",
         "'fault\\.crash\\.at': bad machine index 'x'");
    dies("policy.scenario", "policy = fastest",
         "policyByName: unknown dispatch policy 'fastest'");
    dies("retry.scenario", "fault.retry = forever",
         "retryPolicyByName: unknown retry policy 'forever'");
    dies("billing.scenario", "fault.billing = nobody",
         "faultBillingByName: unknown fault billing mode 'nobody'");
    dies("calibrate.scenario", "calibrate = maybe",
         "scenario key 'calibrate' expects a boolean");
}

TEST(ScenarioSpecDeath, ProgrammaticRangesFailInTheRunner)
{
    // A spec built without set() is checked by ClusterConfig::validate
    // when the runner is built.
    ScenarioSpec spec;
    spec.drainCap = 0;
    EXPECT_EXIT(ScenarioRunner{spec}, ::testing::ExitedWithCode(1),
                "ClusterConfig: drain cap must be positive");
}

TEST(ScenarioSpecDeath, MisspeltFunctionSetListsTheSets)
{
    const std::string path =
        writeTempFile("tset.scenario", "seed = 3\nfunctions = tset\n");
    EXPECT_EXIT((void)ScenarioSpec::fromFile(path),
                ::testing::ExitedWithCode(1),
                "tset\\.scenario:2: scenario key 'functions': unknown "
                "function 'tset' \\(sets: all, test, reference, memory;");
}

TEST(ScenarioSpecDeath, UnknownTrafficModelNamesItsLine)
{
    // Refused where it is read, with the names makeTrafficModel knows.
    const std::string path = writeTempFile(
        "fractal.scenario", "seed = 3\ntraffic = fractal\nrate = 50\n");
    EXPECT_EXIT((void)ScenarioSpec::fromFile(path),
                ::testing::ExitedWithCode(1),
                "fractal\\.scenario:2: unknown traffic model 'fractal' "
                "\\(known: azure, burst, diurnal, poisson, trace\\)");
}

TEST(ScenarioSpecDeath, DuplicateKeyNamesBothLines)
{
    const std::string path = writeTempFile(
        "dup_seed.scenario",
        "seed = 1\nfleet = cascade-5218:1\n\n# retuned\nseed = 2\n");
    EXPECT_EXIT((void)ScenarioSpec::fromFile(path),
                ::testing::ExitedWithCode(1),
                "dup_seed\\.scenario:5: duplicate key 'seed' \\(first on "
                "line 1\\)");
}

TEST(TraceReplayDeath, UnknownFunctionNamesItsRow)
{
    TrafficSpec spec;
    spec.model = "trace";
    spec.tracePath = writeTempFile("unknown_row.csv",
                                   "0.1,float-py\n0.2,nope\n");
    EXPECT_EXIT((void)makeTrafficModel(spec), ::testing::ExitedWithCode(1),
                "unknown_row\\.csv:2: unknown function 'nope'");
    spec.tracePath = writeTempFile("three_fields.csv",
                                   "0.1,float-py,extra\n");
    EXPECT_EXIT((void)makeTrafficModel(spec), ::testing::ExitedWithCode(1),
                "three_fields\\.csv:1: expected <seconds>\\[,<function>\\], "
                "got 3 fields");
}

// ---- the scenario runner ----------------------------------------------

/** An 8-core cut of the Cascade Lake preset, registered once so
 *  fleet specs can name it. */
const std::string &
testMachine()
{
    static const std::string name = [] {
        sim::MachineConfig cfg =
            sim::MachineCatalog::get("cascade-5218");
        cfg.name = "scenario-test-cascade-8";
        cfg.cores = 8;
        sim::MachineCatalog::registerPreset(cfg);
        return cfg.name;
    }();
    return name;
}

TEST(ScenarioRunner, FileAndBuilderSpecsProduceIdenticalReports)
{
    const std::string text = "fleet = " + testMachine() +
                             ":2\n"
                             "policy = warmth-aware\n"
                             "traffic = burst\n"
                             "rate = 4000\n"
                             "invocations = 80\n"
                             "burst.on = 0.01\n"
                             "burst.off = 0.03\n"
                             "functions = float-py\n"
                             "seed = 5\n"
                             "threads = 1\n";
    ScenarioRunner fromFile(ScenarioSpec::fromString(text));

    ScenarioSpec built;
    built.set("fleet", testMachine() + ":2")
        .set("policy", "warmth-aware")
        .set("traffic", "burst")
        .set("rate", "4000")
        .set("invocations", "80")
        .set("burst.on", "0.01")
        .set("burst.off", "0.03")
        .set("functions", "float-py")
        .set("seed", "5")
        .set("threads", "1");
    ScenarioRunner fromBuilder(std::move(built));

    EXPECT_TRUE(cluster::identicalTotals(fromFile.run(), fromBuilder.run()));
    EXPECT_EQ(fromFile.traffic().name(), "burst");
}

TEST(ScenarioRunner, ThreadedRunsAreDeterministicPerModel)
{
    const std::string tracePath = writeTempFile(
        "runner_trace.csv",
        "0.001,float-py\n0.004,\n0.02,float-py\n0.05,\n0.09,\n");
    for (const std::string model :
         {"poisson", "diurnal", "burst", "trace"}) {
        ScenarioSpec spec;
        spec.fleet = {{testMachine(), 2}};
        spec.traffic.model = model;
        spec.traffic.arrivalsPerSecond = 4000;
        spec.traffic.invocations = 60;
        spec.traffic.diurnalPeriod = 0.01;
        spec.traffic.burstOn = 0.005;
        spec.traffic.burstOff = 0.015;
        spec.traffic.tracePath = tracePath;
        spec.functions = "float-py";
        spec.seed = 13;
        spec.threads = 1;
        ScenarioRunner serial(spec);
        spec.threads = 4;
        ScenarioRunner threaded(spec);
        EXPECT_TRUE(cluster::identicalTotals(serial.run(), threaded.run()))
            << model;
    }
}

} // namespace
} // namespace litmus::scenario
