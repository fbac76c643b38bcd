/**
 * @file
 * Machine configuration presets for the contention simulator.
 *
 * The paper evaluates on two Intel servers: a dual-socket Xeon Gold
 * 5218 (Cascade Lake, 32 cores total, 2x22 MiB L3, 384 GiB) and a Xeon
 * Silver 4314 (Ice Lake, 16 cores, 24 MiB L3, 128 GiB). We model each
 * machine as a single shared-resource domain: all cores share one L3
 * capacity pool, one L3 access-bandwidth pool, and one DRAM bandwidth
 * pool. Latencies are specified in nanoseconds and bandwidths in
 * events per nanosecond so DVFS changes interact with memory the same
 * way they do on hardware (a faster core waits more cycles for DRAM).
 */

#ifndef LITMUS_SIM_MACHINE_CONFIG_H
#define LITMUS_SIM_MACHINE_CONFIG_H

#include <string>

#include "common/units.h"

namespace litmus::sim
{

/**
 * Static description of the simulated server.
 *
 * All tunables that shape contention live here so experiments can vary
 * them (the sensitivity studies in Section 8 swap whole presets).
 * Named presets live in MachineCatalog (sim/machine_catalog.h); this
 * struct is the value type they resolve to.
 */
struct MachineConfig
{
    /**
     * Preset name, e.g. "cascade-5218". Doubles as the machine *type*
     * in heterogeneous fleets: calibration profiles record it, and a
     * profile only prices machines whose name matches.
     */
    std::string name;

    /** Physical cores across all sockets. */
    unsigned cores = 32;

    /**
     * Shared-resource domains (sockets). Each socket owns its own L3
     * capacity pool, L3 access bandwidth, and memory bandwidth (the
     * per-domain fields below); cores are split evenly across
     * sockets, consecutive core indices per socket. The default
     * presets fold the paper's dual-socket testbed into one domain;
     * the "cascade-5218-dual" preset models the sockets explicitly.
     */
    unsigned sockets = 1;

    /** Hardware threads per core (1 = SMT disabled, as on Lambda). */
    unsigned smtWays = 1;

    /** Nominal fixed frequency (the paper pins 2.8 GHz). */
    Hertz baseFrequency = 2.8_GHz;

    /** Peak single-core turbo frequency. */
    Hertz turboFrequency = 3.9_GHz;

    /** @name Shared-domain geometry and timing @{ */
    /** Shared L3 capacity of the domain. */
    Bytes l3Capacity = 44_MiB;

    /** Uncontended L3 hit latency (ns). */
    double l3HitLatencyNs = 14.3;

    /** Uncontended DRAM access latency (ns). */
    double memLatencyNs = 71.0;

    /** L3 access service bandwidth (accesses per ns, whole domain). */
    double l3ServiceRate = 5.6;

    /** DRAM line service bandwidth (64B lines per ns, whole domain). */
    double memServiceRate = 1.95;

    /**
     * Queuing model: latency multiplier saturates smoothly as
     * utilization approaches 1, qf(u) = 1 + (qmax - 1) * u^gamma.
     * Bounded on purpose: a saturated DRAM bus raises latency a few
     * fold, it does not diverge (requests throttle the producers).
     */
    double l3QueueMax = 4.5;
    double memQueueMax = 3.2;
    double queueGamma = 2.0;

    /** Exponent of the L3 capacity-pressure miss curve. */
    double capacityMissExponent = 0.42;

    /**
     * Fraction of a *waiting* (runnable but switched-out) task's L3
     * working set that still occupies the cache and pressures the
     * running tasks' shares. Temporal sharing packs many functions'
     * residue into the L3 — the effect that makes Section 7.2's
     * shared environments markedly more congested than one-per-core.
     */
    double residencyFactor = 0.25;
    /** @} */

    /** @name Private-resource coupling @{ */
    /**
     * Strength of the second-order effect where a busy uncore slightly
     * lengthens private-resource time (TLB walks, prefetch drop, L2
     * queue occupancy). Scaled by the task's own memory intensity so
     * compute-bound functions stay unaffected (float-py in the paper
     * sees a 0.05% total slowdown while the suite average is ~4%),
     * and capped so traffic-generator extremes stay plausible.
     */
    double privateCouplingL3 = 0.30;
    double privateCouplingMem = 0.32;

    /** Memory intensity (L2 MPKI) at which the coupling saturates. */
    double couplingSaturationMpki = 2.5;

    /** Upper bound on the coupling inflation (fraction of cpi0). */
    double privateCouplingMax = 0.15;
    /** @} */

    /** @name SMT @{ */
    /**
     * Per-thread CPI multiplier when the SMT sibling is active: both
     * threads share issue slots and private caches.
     */
    double smtCpiMultiplier = 1.95;
    /** @} */

    /** @name OS scheduling @{ */
    /** Round-robin time slice for oversubscribed CPUs. */
    Seconds timeSlice = 5_ms;

    /** Direct cost of a context switch, charged as private cycles. */
    Cycles contextSwitchCycles = 6000;

    /**
     * Cache-warmth CPI inflation from temporal sharing, following the
     * logarithmic saturating shape of Figure 14:
     *   warmth(n) = 1 + warmthMaxPenalty * (1 - exp(-warmthRate*(n-1)))
     * for n co-runners on the CPU; ~1.025 at n=10, flat past ~20.
     */
    double warmthMaxPenalty = 0.028;
    double warmthRate = 0.22;
    /** @} */

    /** Main memory capacity (bounds admission in the invoker). */
    Bytes memoryCapacity = 384_GiB;

    /**
     * Simulation quantum for engines built from this preset (whole
     * nanoseconds; validate() enforces it). The cluster requires every
     * machine type in one fleet to agree on this value — the dispatch
     * epoch is a whole number of quanta and the fleet clock lives on
     * that shared grid — and fatal()s at config time otherwise.
     */
    Seconds quantum = 50e-6;

    /** Total hardware threads (scheduling targets). */
    unsigned hwThreads() const { return cores * smtWays; }

    /** Cores per socket. */
    unsigned coresPerSocket() const { return cores / sockets; }

    /** Hardware threads per socket. */
    unsigned hwThreadsPerSocket() const
    {
        return coresPerSocket() * smtWays;
    }

    /** Socket owning a hardware-thread index. */
    unsigned socketOf(unsigned cpu) const
    {
        return (cpu / smtWays) / coresPerSocket();
    }

    /** Abort with fatal() if any field is inconsistent; a non-empty
     *  @p where (e.g. a preset file's path) leads the message. */
    void validate(const std::string &where = "") const;
};

} // namespace litmus::sim

namespace litmus
{
class ConfigReader;
} // namespace litmus

namespace litmus::sim
{

/**
 * Apply recognized key=value overrides onto a machine config (unknown
 * keys are fatal() so typos surface immediately; every key diagnostic
 * leads with the key's file:line). `base` is skipped: it names the
 * preset a file starts from (MachineCatalog::registerFromFile).
 * Recognized keys: name, cores, smt_ways, base_ghz, turbo_ghz,
 * l3_capacity_mib, l3_hit_latency_ns, mem_latency_ns, l3_service_rate,
 * mem_service_rate, l3_queue_max, mem_queue_max, queue_gamma,
 * capacity_miss_exponent, residency_factor, coupling_l3,
 * coupling_mem, coupling_saturation_mpki, coupling_max,
 * smt_cpi_multiplier, time_slice_ms, context_switch_cycles,
 * warmth_max_penalty, warmth_rate, memory_capacity_gib, quantum_us.
 *
 * Lives in the sim layer (not with ConfigReader in common/): it
 * writes sim::MachineConfig, and common/ must not reach up the DAG.
 */
void applyMachineOverrides(MachineConfig &machine,
                           const ConfigReader &config);

} // namespace litmus::sim

#endif // LITMUS_SIM_MACHINE_CONFIG_H
