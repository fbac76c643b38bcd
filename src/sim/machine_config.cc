#include "sim/machine_config.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/config_reader.h"
#include "common/logging.h"

namespace litmus::sim
{

namespace
{

/** An unsigned key, range-checked so a cast cannot wrap. */
unsigned
unsignedKey(const ConfigReader &config, const std::string &key)
{
    return config.at(key).number<unsigned>(config.get(key),
                                           "machine key '" + key + "'");
}

/** A size in @p unit-byte units: fatal() when negative or at or past
 *  2^64 bytes, where the cast to Bytes is undefined. */
Bytes
bytesKey(const ConfigReader &config, const std::string &key, double unit)
{
    const double bytes = config.getDouble(key, 0) * unit;
    if (bytes < 0 || bytes >= 18446744073709551616.0)
        config.at(key).fail("machine key '", key,
                            "' must be a size in [0, 2^64) bytes, got '",
                            config.get(key), "'");
    return static_cast<Bytes>(bytes);
}

/** A key that sets one double field to its value times @c scale. */
struct RealKey
{
    const char *key;
    double MachineConfig::*field;
    double scale;
};

constexpr RealKey kRealKeys[] = {
    {"base_ghz", &MachineConfig::baseFrequency, 1e9},
    {"turbo_ghz", &MachineConfig::turboFrequency, 1e9},
    {"l3_hit_latency_ns", &MachineConfig::l3HitLatencyNs, 1},
    {"mem_latency_ns", &MachineConfig::memLatencyNs, 1},
    {"l3_service_rate", &MachineConfig::l3ServiceRate, 1},
    {"mem_service_rate", &MachineConfig::memServiceRate, 1},
    {"l3_queue_max", &MachineConfig::l3QueueMax, 1},
    {"mem_queue_max", &MachineConfig::memQueueMax, 1},
    {"queue_gamma", &MachineConfig::queueGamma, 1},
    {"capacity_miss_exponent", &MachineConfig::capacityMissExponent, 1},
    {"residency_factor", &MachineConfig::residencyFactor, 1},
    {"coupling_l3", &MachineConfig::privateCouplingL3, 1},
    {"coupling_mem", &MachineConfig::privateCouplingMem, 1},
    {"coupling_saturation_mpki", &MachineConfig::couplingSaturationMpki, 1},
    {"coupling_max", &MachineConfig::privateCouplingMax, 1},
    {"smt_cpi_multiplier", &MachineConfig::smtCpiMultiplier, 1},
    {"time_slice_ms", &MachineConfig::timeSlice, 1e-3},
    {"context_switch_cycles", &MachineConfig::contextSwitchCycles, 1},
    {"warmth_max_penalty", &MachineConfig::warmthMaxPenalty, 1},
    {"warmth_rate", &MachineConfig::warmthRate, 1},
    {"quantum_us", &MachineConfig::quantum, 1e-6},
};

} // namespace

void
MachineConfig::validate(const std::string &where) const
{
    const std::string who =
        (where.empty() ? "" : where + ": ") + "MachineConfig: ";
    if (cores == 0)
        fatal(who, "cores must be positive");
    if (sockets == 0 || cores % sockets != 0)
        fatal(who, "cores (", cores,
              ") must divide evenly across sockets (", sockets, ")");
    if (smtWays == 0 || smtWays > 2)
        fatal(who, "smtWays must be 1 or 2, got ", smtWays);
    if (!(baseFrequency > 0) || !(turboFrequency >= baseFrequency))
        fatal(who, "bad frequency range");
    if (l3Capacity == 0)
        fatal(who, "l3Capacity must be positive");
    if (!(l3HitLatencyNs > 0) || !(memLatencyNs > l3HitLatencyNs))
        fatal(who, "latencies must satisfy 0 < L3 < mem");
    if (!(l3ServiceRate > 0) || !(memServiceRate > 0))
        fatal(who, "service rates must be positive");
    if (!(l3QueueMax >= 1) || !(memQueueMax >= 1) || !(queueGamma > 0))
        fatal(who, "queue model parameters out of range");
    if (!(capacityMissExponent > 0))
        fatal(who, "capacityMissExponent must be positive");
    if (!(residencyFactor >= 0) || !(residencyFactor <= 1))
        fatal(who, "residencyFactor must be in [0,1]");
    if (!(privateCouplingL3 >= 0) || !(privateCouplingMem >= 0) ||
        !(privateCouplingMax >= 0)) {
        fatal(who, "coupling parameters must be non-negative");
    }
    // The solver divides by it: zero would make every thread's memory
    // intensity inf or NaN, which min(1, .) turns into full coupling.
    if (!(couplingSaturationMpki > 0))
        fatal(who, "couplingSaturationMpki must be positive, "
              "got ",
              couplingSaturationMpki);
    if (!(smtCpiMultiplier >= 1))
        fatal(who, "smtCpiMultiplier must be >= 1");
    if (!(timeSlice > 0) || !std::isfinite(timeSlice))
        fatal(who, "timeSlice must be positive and finite, got ",
              timeSlice, " s");
    if (!(contextSwitchCycles >= 0))
        fatal(who, "contextSwitchCycles must be non-negative, "
              "got ",
              contextSwitchCycles);
    if (!(warmthMaxPenalty >= 0) || !(warmthRate >= 0))
        fatal(who, "warmth parameters must be non-negative");
    const double quantumNs = quantum * 1e9;
    if (!(quantum > 0) || !std::isfinite(quantum) || quantumNs < 1 ||
        std::abs(quantumNs - std::round(quantumNs)) > 1e-6) {
        fatal(who, "quantum must be a positive whole number "
              "of nanoseconds, got ",
              quantum, " s");
    }
}

void
applyMachineOverrides(MachineConfig &machine,
                      const ConfigReader &config)
{
    for (const ConfigReader::Entry &entry : config.entries()) {
        const std::string &key = entry.key;
        const auto real =
            std::find_if(std::begin(kRealKeys), std::end(kRealKeys),
                         [&key](const RealKey &r) { return key == r.key; });
        if (real != std::end(kRealKeys)) {
            machine.*real->field = config.getDouble(key, 0) * real->scale;
        } else if (key == "name") {
            machine.name = config.get(key);
        } else if (key == "cores") {
            machine.cores = unsignedKey(config, key);
        } else if (key == "smt_ways") {
            machine.smtWays = unsignedKey(config, key);
        } else if (key == "l3_capacity_mib") {
            machine.l3Capacity = bytesKey(config, key, 1024.0 * 1024.0);
        } else if (key == "memory_capacity_gib") {
            machine.memoryCapacity =
                bytesKey(config, key, 1024.0 * 1024.0 * 1024.0);
        } else if (key != "base") {
            config.at(key).fail("machine key '", key, "': unknown key");
        }
    }
    machine.validate(config.source());
}

} // namespace litmus::sim
