#include "scenario/scenario.h"

#include <utility>

#include "common/config_reader.h"
#include "common/logging.h"
#include "common/name_table.h"
#include "workload/suite.h"

namespace litmus::scenario
{

namespace
{

constexpr Spelling<bool> kBools[] = {
    {true, "true"}, {true, "yes"}, {true, "on"}, {true, "1"},
    {false, "false"}, {false, "no"}, {false, "off"}, {false, "0"},
};

/** Parse a "type:count,type:count" fleet listing (count defaults to
 *  1); fail at @p at on malformed counts, a count or a total past
 *  ClusterConfig::kMaxMachines, or an empty listing. */
std::vector<cluster::MachineGroup>
parseFleetSpec(const std::string &spec, const SourceLine &at)
{
    constexpr unsigned cap = cluster::ClusterConfig::kMaxMachines;
    std::vector<cluster::MachineGroup> fleet;
    std::uint64_t machines = 0;
    for (const std::string &piece : splitNonEmpty(spec, ',')) {
        cluster::MachineGroup group;
        const auto colon = piece.find(':');
        group.machine = piece.substr(0, colon);
        if (colon != std::string::npos) {
            const std::string count = piece.substr(colon + 1);
            const std::string what = "fleet spec: machine count '" +
                                     count + "' in '" + piece + "'";
            group.count = at.number<unsigned>(count, what, 1u);
            if (group.count > cap)
                at.fail(what, " must be <= ", cap, ", got ", group.count);
        }
        machines += group.count;
        fleet.push_back(group);
    }
    if (fleet.empty())
        at.fail("fleet spec: empty fleet listing");
    if (machines > cap)
        at.fail("fleet spec: '", spec, "' totals ", machines,
                " machines, more than the ", cap, " a fleet may hold");
    return fleet;
}

/** Resolve a `functions` listing; fail at @p at on unknown names or
 *  an empty pool. */
std::vector<const workload::FunctionSpec *>
resolvePool(const std::string &functions, const SourceLine &at)
{
    if (functions.empty() || functions == "all")
        return workload::allFunctions();
    if (functions == "test")
        return workload::testSet();
    if (functions == "reference")
        return workload::referenceSet();
    if (functions == "memory")
        return workload::memoryIntensiveSet();
    std::vector<const workload::FunctionSpec *> pool;
    for (const std::string &name : splitNonEmpty(functions, ',')) {
        const workload::FunctionSpec *spec = workload::findFunction(name);
        if (!spec)
            at.fail("scenario key 'functions': unknown function '", name,
                    "'");
        pool.push_back(spec);
    }
    if (pool.empty())
        at.fail("scenario: 'functions' names no functions — use a set "
                "(all/test/reference/memory) or a comma list of suite "
                "names");
    return pool;
}

} // namespace

ScenarioSpec &
ScenarioSpec::set(const std::string &key, const std::string &value,
                  const SourceLine &at)
{
    const std::string what = "scenario key '" + key + "'";
    // The keys that set one double field to their value.
    const std::pair<const char *, double *> reals[] = {
        {"rate", &traffic.arrivalsPerSecond},
        {"duration", &traffic.duration},
        {"diurnal.period", &traffic.diurnalPeriod},
        {"diurnal.amplitude", &traffic.diurnalAmplitude},
        {"diurnal.phase", &traffic.diurnalPhase},
        {"burst.on", &traffic.burstOn},
        {"burst.off", &traffic.burstOff},
        {"burst.idle_fraction", &traffic.burstIdleFraction},
        {"trace.rate_scale", &traffic.traceRateScale},
        {"azure.rate_scale", &traffic.azureRateScale},
        {"keepalive", &keepAlive},
        {"drain_cap", &drainCap},
        {"sharing_factor", &sharingFactor},
        {"fault.crash.mtbf", &fault.crashMtbf},
        {"fault.crash.restart", &fault.restartDelay},
        {"fault.slow.mtbf", &fault.slowMtbf},
        {"fault.slow.duration", &fault.slowDuration},
        {"fault.slow.factor", &fault.slowFactor},
        {"fault.blind.mtbf", &fault.blindMtbf},
        {"fault.blind.duration", &fault.blindDuration},
        {"fault.retry.backoff", &fault.retryBackoff},
    };
    for (const auto &[name, field] : reals) {
        if (key == name) {
            *field = at.number<double>(value, what);
            return *this;
        }
    }
    if (key == "fleet") {
        fleet = parseFleetSpec(value, at);
    } else if (key == "policy") {
        policy = parseName(cluster::kDispatchPolicies, value,
                           "policyByName: unknown dispatch policy", at);
    } else if (key == "traffic") {
        (void)parseName(kTrafficModels, value, "unknown traffic model", at);
        traffic.model = value;
        // The 10000-arrival default is a stop condition for the
        // generative models; a replay must not silently truncate its
        // file to it.
        if ((value == "trace" || value == "azure") &&
            !invocationsExplicit)
            traffic.invocations = 0;
    } else if (key == "invocations") {
        traffic.invocations = at.number<std::uint64_t>(value, what);
        invocationsExplicit = true;
    } else if (key == "trace.path") {
        traffic.tracePath = value;
    } else if (key == "azure.path") {
        traffic.azurePath = value;
    } else if (key == "azure.max_rows") {
        traffic.azureMaxRows = at.number<std::uint64_t>(value, what);
    } else if (key == "functions") {
        (void)resolvePool(value, at);
        functions = value;
    } else if (key == "seed") {
        seed = at.number<std::uint64_t>(value, what);
    } else if (key == "epoch_us") {
        epoch = at.number<double>(value, what) * 1e-6;
    } else if (key == "threads") {
        threads = at.number<unsigned>(value, what);
        if (threads > cluster::ClusterConfig::kMaxThreads)
            at.fail(what, " must be <= ",
                    cluster::ClusterConfig::kMaxThreads, ", got ",
                    threads);
    } else if (key == "calibrate") {
        calibrate =
            parseName(kBools, value, what + " expects a boolean, got", at);
    } else if (key == "calibration_levels") {
        calibrationLevels = at.number<unsigned>(value, what);
    } else if (key == "tables") {
        tables = splitNonEmpty(value, ',');
    } else if (key == "tables_out") {
        tablesOut = value;
    } else if (key == "probes") {
        probes =
            parseName(kBools, value, what + " expects a boolean, got", at);
    } else if (key == "fault.seed") {
        fault.seed = at.number<std::uint64_t>(value, what);
    } else if (key == "fault.crash.at") {
        fault.crashAt = cluster::parseScriptedFaults(key, value, at);
    } else if (key == "fault.slow.at") {
        fault.slowAt = cluster::parseScriptedFaults(key, value, at);
    } else if (key == "fault.blind.at") {
        fault.blindAt = cluster::parseScriptedFaults(key, value, at);
    } else if (key == "fault.retry") {
        fault.retry = parseName(cluster::kRetryPolicies, value,
                                "retryPolicyByName: unknown retry policy",
                                at);
    } else if (key == "fault.retry.max") {
        fault.retryMax = at.number<unsigned>(value, what, 1u);
    } else if (key == "fault.billing") {
        fault.billing = parseName(
            cluster::kFaultBillings, value,
            "faultBillingByName: unknown fault billing mode", at);
    } else {
        at.fail("unknown scenario key '", key, "' (known: ",
                joinNames(knownKeys()), ")");
    }
    return *this;
}

std::vector<std::string>
ScenarioSpec::knownKeys()
{
    return {"azure.max_rows", "azure.path",
            "azure.rate_scale",
            "burst.idle_fraction", "burst.off", "burst.on",
            "calibrate", "calibration_levels", "diurnal.amplitude",
            "diurnal.period", "diurnal.phase", "drain_cap", "duration",
            "epoch_us", "fault.billing",
            "fault.blind.at", "fault.blind.duration",
            "fault.blind.mtbf", "fault.crash.at", "fault.crash.mtbf",
            "fault.crash.restart", "fault.retry",
            "fault.retry.backoff", "fault.retry.max", "fault.seed",
            "fault.slow.at", "fault.slow.duration",
            "fault.slow.factor", "fault.slow.mtbf", "fleet",
            "functions", "invocations", "keepalive", "policy",
            "probes", "rate", "seed", "sharing_factor",
            "tables",
            "tables_out", "threads", "trace.path", "trace.rate_scale",
            "traffic"};
}

ScenarioSpec
ScenarioSpec::fromConfig(const ConfigReader &config)
{
    ScenarioSpec spec;
    for (const ConfigReader::Entry &entry : config.entries())
        spec.set(entry.key, entry.value, {config.source(), entry.line});
    return spec;
}

ScenarioSpec
ScenarioSpec::fromFile(const std::string &path)
{
    ScenarioSpec spec = fromConfig(ConfigReader::fromFile(path));
    // A relative trace path means "next to the scenario file", so a
    // scenario + trace pair can be shipped as a unit and run from any
    // working directory.
    const auto resolve = [&path](std::string &trace) {
        if (trace.empty() || trace.front() == '/')
            return;
        const auto slash = path.find_last_of('/');
        if (slash != std::string::npos)
            trace = path.substr(0, slash + 1) + trace;
    };
    resolve(spec.traffic.tracePath);
    resolve(spec.traffic.azurePath);
    return spec;
}

ScenarioSpec
ScenarioSpec::fromString(const std::string &text)
{
    return fromConfig(ConfigReader::fromString(text));
}

std::vector<const workload::FunctionSpec *>
ScenarioSpec::functionPool() const
{
    return resolvePool(functions, {});
}

void
ScenarioSpec::validate() const
{
    traffic.validate();
    if (fleet.empty())
        fatal("scenario: fleet listing is empty");
    if (epoch <= 0)
        fatal("scenario: epoch_us must be positive");
    if (keepAlive < 0)
        fatal("scenario: negative keepalive");
    if (drainCap <= 0)
        fatal("scenario: drain_cap must be positive");
    if (sharingFactor <= 0)
        fatal("scenario: sharing_factor must be positive");
    fault.validate();
    (void)functionPool();
}

} // namespace litmus::scenario
