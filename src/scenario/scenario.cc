#include "scenario/scenario.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/config_reader.h"
#include "common/name_table.h"
#include "sim/machine_catalog.h"
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
 *  ClusterConfig::kMaxMachines, a type the catalog does not know, or
 *  an empty listing. */
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
        (void)sim::MachineCatalog::get(group.machine, at);
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

/** The named sets a `functions` value may give instead of a list. */
constexpr Spelling<std::vector<const workload::FunctionSpec *> (*)()>
    kFunctionSets[] = {
        {workload::allFunctions, "all"},
        {workload::testSet, "test"},
        {workload::referenceSet, "reference"},
        {workload::memoryIntensiveSet, "memory"},
};

/** Resolve a `functions` listing; fail at @p at on unknown names or
 *  an empty pool. */
std::vector<const workload::FunctionSpec *>
resolvePool(const std::string &functions, const SourceLine &at)
{
    if (functions.empty())
        return workload::allFunctions();
    for (const auto &[set, name] : kFunctionSets)
        if (functions == name)
            return set();
    std::vector<const workload::FunctionSpec *> pool;
    for (const std::string &name : splitNonEmpty(functions, ',')) {
        const workload::FunctionSpec *spec = workload::findFunction(name);
        if (!spec)
            at.fail("scenario key 'functions': unknown function '", name,
                    "' (sets: ", nameListing(kFunctionSets),
                    "; or a comma list of suite names)");
        pool.push_back(spec);
    }
    if (pool.empty())
        at.fail("scenario: 'functions' names no functions — use a set (",
                nameListing(kFunctionSets),
                ") or a comma list of suite names");
    return pool;
}

/** One scenario value, as a key's setter reads it. */
struct KeyValue
{
    const std::string &key;
    const std::string &text;
    const SourceLine &at;
    std::string what = "scenario key '" + key + "'";
};

/** The setter of the field s.*Path...: text, a boolean, a scripted
 *  fault list or a number. */
template <auto... Path>
void
field(ScenarioSpec &s, const KeyValue &v)
{
    auto &slot = (s .* ... .* Path);
    using T = std::remove_reference_t<decltype(slot)>;
    if constexpr (std::is_same_v<T, std::string>)
        slot = v.text;
    else if constexpr (std::is_same_v<T, bool> ||
                       std::is_same_v<T, std::optional<bool>>)
        slot = parseName(kBools, v.text, v.what + " expects a boolean, got",
                         v.at);
    else if constexpr (std::is_same_v<T, std::vector<cluster::ScriptedFault>>)
        slot = cluster::parseScriptedFaults(v.key, v.text, v.at);
    else
        slot = v.at.number<T>(v.text, v.what);
}

/** field<Path...>, refusing a value that is not positive. */
template <auto... Path>
void
positive(ScenarioSpec &s, const KeyValue &v)
{
    field<Path...>(s, v);
    if (!((s .* ... .* Path) > 0))
        v.at.fail(v.what, " must be positive, got ", v.text);
}

/** How one key applies its value to a spec. */
using KeySetter = void (*)(ScenarioSpec &, const KeyValue &);

using cluster::FaultSpec;
using Spec = ScenarioSpec;

/** Every scenario key, sorted, with its setter: set() dispatches on
 *  this table and knownKeys() lists it. */
constexpr std::pair<std::string_view, KeySetter> kKeys[] = {
    {"azure.max_rows", field<&Spec::traffic, &TrafficSpec::azureMaxRows>},
    {"azure.path", field<&Spec::traffic, &TrafficSpec::azurePath>},
    {"azure.rate_scale", field<&Spec::traffic, &TrafficSpec::azureRateScale>},
    {"burst.idle_fraction",
     field<&Spec::traffic, &TrafficSpec::burstIdleFraction>},
    {"burst.off", field<&Spec::traffic, &TrafficSpec::burstOff>},
    {"burst.on", field<&Spec::traffic, &TrafficSpec::burstOn>},
    {"calibrate", field<&Spec::calibrate>},
    {"calibration_levels", field<&Spec::calibrationLevels>},
    {"diurnal.amplitude",
     field<&Spec::traffic, &TrafficSpec::diurnalAmplitude>},
    {"diurnal.period", field<&Spec::traffic, &TrafficSpec::diurnalPeriod>},
    {"diurnal.phase", field<&Spec::traffic, &TrafficSpec::diurnalPhase>},
    {"drain_cap", positive<&Spec::drainCap>},
    {"duration", field<&Spec::traffic, &TrafficSpec::duration>},
    {"epoch_us",
     [](auto &s, auto &v) {
         positive<&Spec::epoch>(s, v);
         s.epoch *= 1e-6;
     }},
    {"fault.billing",
     [](auto &s, auto &v) {
         s.fault.billing = parseName(
             cluster::kFaultBillings, v.text,
             "faultBillingByName: unknown fault billing mode", v.at);
     }},
    {"fault.blind.at", field<&Spec::fault, &FaultSpec::blindAt>},
    {"fault.blind.duration", field<&Spec::fault, &FaultSpec::blindDuration>},
    {"fault.blind.mtbf", field<&Spec::fault, &FaultSpec::blindMtbf>},
    {"fault.crash.at", field<&Spec::fault, &FaultSpec::crashAt>},
    {"fault.crash.mtbf", field<&Spec::fault, &FaultSpec::crashMtbf>},
    {"fault.crash.restart", field<&Spec::fault, &FaultSpec::restartDelay>},
    {"fault.retry",
     [](auto &s, auto &v) {
         s.fault.retry = parseName(cluster::kRetryPolicies, v.text,
                                   "retryPolicyByName: unknown retry policy",
                                   v.at);
     }},
    {"fault.retry.backoff", field<&Spec::fault, &FaultSpec::retryBackoff>},
    {"fault.retry.max",
     [](auto &s, auto &v) {
         s.fault.retryMax = v.at.number(v.text, v.what, 1u);
     }},
    {"fault.seed", field<&Spec::fault, &FaultSpec::seed>},
    {"fault.slow.at", field<&Spec::fault, &FaultSpec::slowAt>},
    {"fault.slow.duration", field<&Spec::fault, &FaultSpec::slowDuration>},
    {"fault.slow.factor", field<&Spec::fault, &FaultSpec::slowFactor>},
    {"fault.slow.mtbf", field<&Spec::fault, &FaultSpec::slowMtbf>},
    {"fleet",
     [](auto &s, auto &v) { s.fleet = parseFleetSpec(v.text, v.at); }},
    {"functions",
     [](auto &s, auto &v) {
         (void)resolvePool(v.text, v.at);
         s.functions = v.text;
     }},
    {"invocations",
     [](auto &s, auto &v) {
         field<&Spec::traffic, &TrafficSpec::invocations>(s, v);
         s.invocationsExplicit = true;
     }},
    {"keepalive",
     [](auto &s, auto &v) {
         s.keepAlive = v.at.number(v.text, v.what, 0.0);
     }},
    {"policy",
     [](auto &s, auto &v) {
         s.policy = parseName(cluster::kDispatchPolicies, v.text,
                              "policyByName: unknown dispatch policy", v.at);
     }},
    {"probes", field<&Spec::probes>},
    {"rate", field<&Spec::traffic, &TrafficSpec::arrivalsPerSecond>},
    {"seed", field<&Spec::seed>},
    {"sharing_factor", positive<&Spec::sharingFactor>},
    {"tables",
     [](auto &s, auto &v) { s.tables = splitNonEmpty(v.text, ','); }},
    {"tables_out", field<&Spec::tablesOut>},
    {"threads",
     [](auto &s, auto &v) {
         field<&Spec::threads>(s, v);
         if (s.threads > cluster::ClusterConfig::kMaxThreads)
             v.at.fail(v.what, " must be <= ",
                       cluster::ClusterConfig::kMaxThreads, ", got ",
                       s.threads);
     }},
    {"trace.path", field<&Spec::traffic, &TrafficSpec::tracePath>},
    {"trace.rate_scale", field<&Spec::traffic, &TrafficSpec::traceRateScale>},
    {"traffic",
     [](auto &s, auto &v) {
         (void)parseName(kTrafficModels, v.text, "unknown traffic model",
                         v.at);
         s.traffic.model = v.text;
         // The 10000-arrival default is a stop condition for the
         // generative models; a replay must not silently truncate its
         // file to it.
         if ((v.text == "trace" || v.text == "azure") &&
             !s.invocationsExplicit)
             s.traffic.invocations = 0;
     }},
};

} // namespace

ScenarioSpec &
ScenarioSpec::set(const std::string &key, const std::string &value,
                  const SourceLine &at)
{
    for (const auto &[name, apply] : kKeys) {
        if (key == name) {
            apply(*this, {key, value, at});
            return *this;
        }
    }
    at.fail("unknown scenario key '", key, "' (known: ",
            joinNames(knownKeys()), ")");
}

std::vector<std::string>
ScenarioSpec::knownKeys()
{
    std::vector<std::string> keys;
    for (const auto &[name, apply] : kKeys)
        keys.emplace_back(name);
    std::sort(keys.begin(), keys.end());
    return keys;
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

} // namespace litmus::scenario
