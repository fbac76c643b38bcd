#include "scenario/scenario.h"

#include <algorithm>
#include <limits>

#include "common/config_reader.h"
#include "common/logging.h"
#include "common/strings.h"
#include "workload/suite.h"

namespace litmus::scenario
{

namespace
{

long
parseLong(const std::string &key, const std::string &value)
{
    const auto parsed = parseLongStrict(value);
    if (!parsed)
        fatal("scenario key '", key, "' expects an integer, got '",
              value, "'");
    return *parsed;
}

long
parseLongAtLeast(const std::string &key, const std::string &value,
                 long floor)
{
    const long parsed = parseLong(key, value);
    if (parsed < floor)
        fatal("scenario key '", key, "' must be >= ", floor, ", got ",
              parsed);
    return parsed;
}

double
parseDouble(const std::string &key, const std::string &value)
{
    const auto parsed = parseDoubleStrict(value);
    if (!parsed)
        fatal("scenario key '", key, "' expects a finite number, "
              "got '", value, "'");
    return *parsed;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "true" || value == "yes" || value == "on" ||
        value == "1")
        return true;
    if (value == "false" || value == "no" || value == "off" ||
        value == "0")
        return false;
    fatal("scenario key '", key, "' expects a boolean "
          "(true/false/yes/no/on/off/1/0), got '", value, "'");
}

/** The known-keys list as one comma-joined string (diagnostics). */
std::string
knownKeyListing()
{
    std::string known;
    for (const std::string &k : ScenarioSpec::knownKeys())
        known += (known.empty() ? "" : ", ") + k;
    return known;
}

} // namespace

std::vector<cluster::MachineGroup>
parseFleetSpec(const std::string &spec)
{
    std::vector<cluster::MachineGroup> fleet;
    for (const std::string &piece : splitNonEmpty(spec, ',')) {
        cluster::MachineGroup group;
        const auto colon = piece.find(':');
        group.machine = piece.substr(0, colon);
        if (colon != std::string::npos) {
            const std::string count = piece.substr(colon + 1);
            const auto parsed = parseLongStrict(count);
            if (!parsed || *parsed < 1)
                fatal("fleet spec: bad machine count '", count,
                      "' in '", piece, "' (want <type>:<count>)");
            if (*parsed > std::numeric_limits<unsigned>::max())
                fatal("fleet spec: machine count '", count, "' in '",
                      piece, "' must be <= ",
                      std::numeric_limits<unsigned>::max());
            group.count = static_cast<unsigned>(*parsed);
        }
        fleet.push_back(group);
    }
    if (fleet.empty())
        fatal("fleet spec: empty fleet listing");
    return fleet;
}

ScenarioSpec &
ScenarioSpec::set(const std::string &key, const std::string &value)
{
    if (key == "fleet") {
        fleet = parseFleetSpec(value);
    } else if (key == "policy") {
        policy = cluster::policyByName(value);
    } else if (key == "traffic") {
        traffic.model = value;
        // The 10000-arrival default is a stop condition for the
        // generative models; a replay must not silently truncate its
        // file to it.
        if ((value == "trace" || value == "azure") &&
            !invocationsExplicit)
            traffic.invocations = 0;
    } else if (key == "rate") {
        traffic.arrivalsPerSecond = parseDouble(key, value);
    } else if (key == "invocations") {
        traffic.invocations = static_cast<std::uint64_t>(
            parseLongAtLeast(key, value, 0));
        invocationsExplicit = true;
    } else if (key == "duration") {
        traffic.duration = parseDouble(key, value);
    } else if (key == "diurnal.period") {
        traffic.diurnalPeriod = parseDouble(key, value);
    } else if (key == "diurnal.amplitude") {
        traffic.diurnalAmplitude = parseDouble(key, value);
    } else if (key == "diurnal.phase") {
        traffic.diurnalPhase = parseDouble(key, value);
    } else if (key == "burst.on") {
        traffic.burstOn = parseDouble(key, value);
    } else if (key == "burst.off") {
        traffic.burstOff = parseDouble(key, value);
    } else if (key == "burst.idle_fraction") {
        traffic.burstIdleFraction = parseDouble(key, value);
    } else if (key == "trace.path") {
        traffic.tracePath = value;
    } else if (key == "trace.rate_scale") {
        traffic.traceRateScale = parseDouble(key, value);
    } else if (key == "azure.path") {
        traffic.azurePath = value;
    } else if (key == "azure.max_rows") {
        traffic.azureMaxRows = static_cast<std::uint64_t>(
            parseLongAtLeast(key, value, 0));
    } else if (key == "azure.rate_scale") {
        traffic.azureRateScale = parseDouble(key, value);
    } else if (key == "functions") {
        functions = value;
    } else if (key == "seed") {
        seed = static_cast<std::uint64_t>(
            parseLongAtLeast(key, value, 0));
    } else if (key == "epoch_us") {
        epoch = parseDouble(key, value) * 1e-6;
    } else if (key == "keepalive") {
        keepAlive = parseDouble(key, value);
    } else if (key == "threads") {
        threads = parseUnsignedAtLeast("scenario key 'threads'", value, 0);
    } else if (key == "drain_cap") {
        drainCap = parseDouble(key, value);
    } else if (key == "calibrate") {
        calibrate = parseBool(key, value);
    } else if (key == "calibration_levels") {
        calibrationLevels = parseUnsignedAtLeast(
            "scenario key 'calibration_levels'", value, 0);
    } else if (key == "tables") {
        tables = splitNonEmpty(value, ',');
    } else if (key == "tables_out") {
        tablesOut = value;
    } else if (key == "probes") {
        probes = parseBool(key, value);
    } else if (key == "sharing_factor") {
        sharingFactor = parseDouble(key, value);
    } else if (key == "fault.seed") {
        fault.seed = static_cast<std::uint64_t>(
            parseLongAtLeast(key, value, 0));
    } else if (key == "fault.crash.mtbf") {
        fault.crashMtbf = parseDouble(key, value);
    } else if (key == "fault.crash.restart") {
        fault.restartDelay = parseDouble(key, value);
    } else if (key == "fault.crash.at") {
        fault.crashAt = cluster::parseScriptedFaults(key, value);
    } else if (key == "fault.slow.mtbf") {
        fault.slowMtbf = parseDouble(key, value);
    } else if (key == "fault.slow.duration") {
        fault.slowDuration = parseDouble(key, value);
    } else if (key == "fault.slow.factor") {
        fault.slowFactor = parseDouble(key, value);
    } else if (key == "fault.slow.at") {
        fault.slowAt = cluster::parseScriptedFaults(key, value);
    } else if (key == "fault.blind.mtbf") {
        fault.blindMtbf = parseDouble(key, value);
    } else if (key == "fault.blind.duration") {
        fault.blindDuration = parseDouble(key, value);
    } else if (key == "fault.blind.at") {
        fault.blindAt = cluster::parseScriptedFaults(key, value);
    } else if (key == "fault.retry") {
        fault.retry = cluster::retryPolicyByName(value);
    } else if (key == "fault.retry.max") {
        fault.retryMax = parseUnsignedAtLeast(
            "scenario key 'fault.retry.max'", value, 1);
    } else if (key == "fault.retry.backoff") {
        fault.retryBackoff = parseDouble(key, value);
    } else if (key == "fault.billing") {
        fault.billing = cluster::faultBillingByName(value);
    } else {
        fatal("unknown scenario key '", key, "' (known: ",
              knownKeyListing(), ")");
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
    const std::vector<std::string> known = knownKeys();
    for (const std::string &key : config.keys()) {
        // Typos surface with the offending line, not just the key:
        // "examples/x.scenario:12: unknown scenario key ...".
        if (!std::binary_search(known.begin(), known.end(), key)) {
            const std::string where = config.where(key);
            fatal(where.empty() ? "scenario" : where,
                  ": unknown scenario key '", key, "' (known: ",
                  knownKeyListing(), ")");
        }
        spec.set(key, config.get(key));
    }
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
    if (functions.empty() || functions == "all")
        return workload::allFunctions();
    if (functions == "test")
        return workload::testSet();
    if (functions == "reference")
        return workload::referenceSet();
    if (functions == "memory")
        return workload::memoryIntensiveSet();
    std::vector<const workload::FunctionSpec *> pool;
    // An unknown name fatal()s with the suite listing.
    for (const std::string &name : splitNonEmpty(functions, ','))
        pool.push_back(&workload::functionByName(name));
    if (pool.empty())
        fatal("scenario: 'functions' names no functions — use a set "
              "(all/test/reference/memory) or a comma list of suite "
              "names");
    return pool;
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
