#include "sim/machine_config.h"

#include <cmath>

#include "common/config_reader.h"
#include "common/logging.h"
#include "common/strings.h"

namespace litmus::sim
{

namespace
{

/** Diagnostic name of @p key, led by its "file:line" when known. */
std::string
keyLabel(const ConfigReader &config, const std::string &key)
{
    const std::string where = config.where(key);
    return (where.empty() ? "" : where + ": ") + "machine key '" + key +
           "'";
}

/** An unsigned key, range-checked so a cast cannot wrap. */
unsigned
unsignedKey(const ConfigReader &config, const std::string &key)
{
    return parseUnsignedAtLeast(keyLabel(config, key), config.get(key),
                                0);
}

/** A size in @p unit-byte units: fatal() when negative or at or past
 *  2^64 bytes, where the cast to Bytes is undefined. */
Bytes
bytesKey(const ConfigReader &config, const std::string &key, double unit)
{
    const double bytes = config.getDouble(key, 0) * unit;
    if (bytes < 0 || bytes >= 18446744073709551616.0)
        fatal(keyLabel(config, key), " must be a size in [0, 2^64) "
              "bytes, got '", config.get(key), "'");
    return static_cast<Bytes>(bytes);
}

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
    for (const std::string &key : config.keys()) {
        if (key == "name") {
            machine.name = config.get(key);
        } else if (key == "cores") {
            machine.cores = unsignedKey(config, key);
        } else if (key == "smt_ways") {
            machine.smtWays = unsignedKey(config, key);
        } else if (key == "base_ghz") {
            machine.baseFrequency = config.getDouble(key, 0) * 1e9;
        } else if (key == "turbo_ghz") {
            machine.turboFrequency = config.getDouble(key, 0) * 1e9;
        } else if (key == "l3_capacity_mib") {
            machine.l3Capacity = bytesKey(config, key, 1024.0 * 1024.0);
        } else if (key == "l3_hit_latency_ns") {
            machine.l3HitLatencyNs = config.getDouble(key, 0);
        } else if (key == "mem_latency_ns") {
            machine.memLatencyNs = config.getDouble(key, 0);
        } else if (key == "l3_service_rate") {
            machine.l3ServiceRate = config.getDouble(key, 0);
        } else if (key == "mem_service_rate") {
            machine.memServiceRate = config.getDouble(key, 0);
        } else if (key == "l3_queue_max") {
            machine.l3QueueMax = config.getDouble(key, 0);
        } else if (key == "mem_queue_max") {
            machine.memQueueMax = config.getDouble(key, 0);
        } else if (key == "queue_gamma") {
            machine.queueGamma = config.getDouble(key, 0);
        } else if (key == "capacity_miss_exponent") {
            machine.capacityMissExponent = config.getDouble(key, 0);
        } else if (key == "residency_factor") {
            machine.residencyFactor = config.getDouble(key, 0);
        } else if (key == "coupling_l3") {
            machine.privateCouplingL3 = config.getDouble(key, 0);
        } else if (key == "coupling_mem") {
            machine.privateCouplingMem = config.getDouble(key, 0);
        } else if (key == "coupling_saturation_mpki") {
            machine.couplingSaturationMpki = config.getDouble(key, 0);
        } else if (key == "coupling_max") {
            machine.privateCouplingMax = config.getDouble(key, 0);
        } else if (key == "smt_cpi_multiplier") {
            machine.smtCpiMultiplier = config.getDouble(key, 0);
        } else if (key == "time_slice_ms") {
            machine.timeSlice = config.getDouble(key, 0) * 1e-3;
        } else if (key == "context_switch_cycles") {
            machine.contextSwitchCycles = config.getDouble(key, 0);
        } else if (key == "warmth_max_penalty") {
            machine.warmthMaxPenalty = config.getDouble(key, 0);
        } else if (key == "warmth_rate") {
            machine.warmthRate = config.getDouble(key, 0);
        } else if (key == "memory_capacity_gib") {
            machine.memoryCapacity =
                bytesKey(config, key, 1024.0 * 1024.0 * 1024.0);
        } else if (key == "quantum_us") {
            machine.quantum = config.getDouble(key, 0) * 1e-6;
        } else if (key != "base") {
            fatal(keyLabel(config, key), ": unknown key");
        }
    }
    machine.validate(config.source());
}

} // namespace litmus::sim
