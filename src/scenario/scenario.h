/**
 * @file
 * Declarative scenario specifications: one file (or one struct)
 * describing a whole fleet experiment.
 *
 * A scenario bundles everything a fleet run needs — the machine
 * groups, the dispatch policy, the traffic model and its knobs, the
 * function pool, pricing, duration and seed — in the same flat
 * key=value format the machine presets already use (ConfigReader:
 * one `key = value` per line, '#' comments). Example:
 *
 *     # peak/off-peak load on a mixed fleet
 *     fleet       = cascade-5218:2,icelake-4314:2
 *     policy      = cost-aware
 *     traffic     = diurnal
 *     rate        = 4000
 *     invocations = 20000
 *     diurnal.period    = 30
 *     diurnal.amplitude = 0.9
 *     seed        = 7
 *
 * Unknown keys are fatal() so typos surface immediately. The same
 * schema is available programmatically: every key can be applied
 * with ScenarioSpec::set("key", "value"), which is what the CLI
 * shims use to overlay explicit flags onto a loaded file.
 */

#ifndef LITMUS_SCENARIO_SCENARIO_H
#define LITMUS_SCENARIO_SCENARIO_H

#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "scenario/traffic_model.h"

namespace litmus
{
class ConfigReader;
} // namespace litmus

namespace litmus::scenario
{

/** Parse a "type:count,type:count" fleet listing (count defaults to
 *  1); fatal() on malformed counts or an empty spec. */
std::vector<cluster::MachineGroup>
parseFleetSpec(const std::string &spec);

/**
 * The declarative scenario. Defaults mirror the litmus_fleet CLI so
 * an empty file and a flagless invocation describe the same run.
 */
struct ScenarioSpec
{
    /** @name Fleet @{ */
    std::vector<cluster::MachineGroup> fleet = {{"cascade-5218", 4}};
    cluster::DispatchPolicy policy =
        cluster::DispatchPolicy::WarmthAware;
    /** @} */

    /** The arrival process (model name + knobs). */
    TrafficSpec traffic;

    /** The fault campaign (fault.* keys; default: no faults). */
    cluster::FaultSpec fault;

    /**
     * Sampling pool: the named set ("all", "test", "reference",
     * "memory") or an explicit comma list of suite function names.
     */
    std::string functions = "all";

    /** @name Serving model @{ */
    std::uint64_t seed = 1;
    Seconds epoch = 1e-3;
    Seconds keepAlive = 10.0;
    unsigned threads = 0;
    Seconds drainCap = 600.0;
    /** @} */

    /** @name Pricing @{ */
    /** Calibrate every fleet machine type in-process (memoized via
     *  ProfileStore), enabling Litmus pricing. */
    bool calibrate = false;

    /** Calibration level cap for in-process sweeps (0 = the full
     *  dedicated sweep); smoke runs set 2-3. */
    unsigned calibrationLevels = 0;

    /** Serialized calibration profiles to load (enables Litmus
     *  pricing; one per machine type). */
    std::vector<std::string> tables;

    /** Persist the active profiles here (one file per type). */
    std::string tablesOut;

    /** Attach Litmus probes: unset = auto (on iff pricing). */
    std::optional<bool> probes;

    /** Method 1 sharing factor for Litmus quotes. */
    double sharingFactor = 1.0;
    /** @} */

    /**
     * Whether an `invocations` key has been applied through set().
     * Switching to a replay model (`traffic = trace` or `azure`)
     * drops the generative models' 10000-arrival default unless the
     * user asked for a cap, so an untouched replay scenario serves
     * its whole file.
     */
    bool invocationsExplicit = false;

    /**
     * Apply one key=value pair — the programmatic builder and the
     * file parser share this. fatal() on unknown keys or malformed
     * values. Returns *this for chaining:
     *
     *     ScenarioSpec().set("traffic", "burst").set("rate", "5000")
     */
    ScenarioSpec &set(const std::string &key, const std::string &value);

    /** Apply every key of a parsed config, in file order. Unknown
     *  keys fatal() with the config's file:line locator, so a typo
     *  in a scenario file points at the offending line. */
    static ScenarioSpec fromConfig(const ConfigReader &config);

    /** Load from a scenario file. A relative trace.path or
     *  azure.path is resolved against the scenario file's
     *  directory. */
    static ScenarioSpec fromFile(const std::string &path);

    /** Parse from text (tests, embedded scenarios). */
    static ScenarioSpec fromString(const std::string &text);

    /** Resolve the `functions` listing; fatal() on unknown names or
     *  an empty pool. */
    std::vector<const workload::FunctionSpec *> functionPool() const;

    /** fatal() on inconsistent settings (delegates to the traffic
     *  spec and mirrors ClusterConfig::validate). */
    void validate() const;

    /** The recognized keys, sorted (help text). */
    static std::vector<std::string> knownKeys();
};

} // namespace litmus::scenario

#endif // LITMUS_SCENARIO_SCENARIO_H
