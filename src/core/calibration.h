/**
 * @file
 * Provider-side offline calibration (Section 6, Steps 1 and 2).
 *
 * The Calibrator fills the congestion and performance tables by
 * simulating the provider's procedure: stress the machine with CT-Gen
 * and MB-Gen at a range of levels; at each level run the language
 * startups (congestion table) and the reference functions
 * (performance table); normalize everything against congestion-free
 * solo runs.
 *
 * Method 2 of Section 7.2 is the same procedure with a temporal-
 * sharing environment present: a population of functions shares a
 * small CPU pool with the subject while the generators stress the
 * remaining cores.
 *
 * The sweep is parallel and deterministic. Each (generator, level)
 * cell is a self-contained environment seeded by its level, so the
 * cells run as one batch on an EpochPool and write into per-cell
 * slots; the tables are filled from the slots in the serial order
 * afterwards. The thread count never changes a result: a profile is
 * byte-identical at 1 and N threads.
 */

#ifndef LITMUS_CORE_CALIBRATION_H
#define LITMUS_CORE_CALIBRATION_H

#include <map>
#include <string>

#include "common/epoch_pool.h"
#include "core/congestion_table.h"
#include "core/performance_table.h"
#include "sim/machine_catalog.h"
#include "workload/suite.h"

namespace litmus::pricing
{

/** Solo per-component CPI of a whole function (ideal-price oracle). */
struct SoloBaseline
{
    double privCpi = 0.0;
    double sharedCpi = 0.0;

    double totalCpi() const { return privCpi + sharedCpi; }
};

/** Calibration configuration. */
struct CalibrationConfig
{
    sim::MachineConfig machine = sim::MachineCatalog::get("cascade-5218");
    sim::FrequencyPolicy policy = sim::FrequencyPolicy::Fixed;

    /** Stress levels to record (strictly increasing). */
    std::vector<unsigned> levels = {2, 4, 6, 8, 10, 12, 14,
                                    16, 18, 20, 22, 24, 26};

    /** CPU the subject runs on in dedicated (Method-agnostic) mode;
     *  must lie outside the generator range. */
    unsigned subjectCpu = 0;

    /** First CPU assigned to generator threads. */
    unsigned generatorFirstCpu = 1;

    /**
     * Temporal-sharing environment (Method 2): when positive, this
     * many functions churn on sharingCpus, and the subject joins that
     * pool instead of owning subjectCpu.
     */
    unsigned sharingFunctions = 0;
    std::vector<unsigned> sharingCpus;

    /** Reference functions (the Table 1 asterisks by default; an
     *  explicitly empty pool is a validate() error). */
    std::vector<const workload::FunctionSpec *> referencePool =
        workload::referenceSet();

    /** Subject-measurement repetitions per cell (averaged). */
    unsigned repetitions = 1;

    /**
     * Probe window override in instructions (0 = language defaults).
     * Must match the runtime probes that will consult these tables.
     */
    Instructions probeWindowOverride = 0;

    /** Simulated warmup before measuring each cell. */
    Seconds warmup = 0.08;

    std::uint64_t seed = 7;

    void validate() const;
};

/**
 * Everything calibration produces — a first-class, deployable
 * artifact. The congestion/performance tables (startup baselines
 * included), the reference-function solo baselines, and the name of
 * the machine type it was calibrated on travel together: table_io
 * round-trips the whole profile (v2 format), ProfileStore memoizes
 * one per machine type, and DiscountModel refuses to price a machine
 * whose type does not match.
 */
struct CalibrationProfile
{
    /** MachineConfig::name of the calibration machine. Empty on
     *  legacy (v1) artifacts and hand-built tables = matches any. */
    std::string machine;

    CongestionTable congestion;
    PerformanceTable performance;

    /** Solo baselines of the reference functions (diagnostics). */
    std::map<std::string, SoloBaseline> referenceSolo;

    /** fatal() when this profile was calibrated on a different
     *  machine type than @p machine_name (empty on either side is a
     *  wildcard). */
    void requireMachine(const std::string &machine_name) const;
};

/**
 * The one profile/machine matching rule: an empty name on either
 * side is a wildcard (legacy artifacts, synthetic tables), anything
 * else must match exactly. @p context names the caller in the
 * fatal().
 */
void requireMachineMatch(const std::string &calibrated,
                         const std::string &machine_name,
                         const char *context);

/**
 * Measure the solo baseline of a function spec on a machine (runs it
 * alone, no jitter).
 */
SoloBaseline measureSoloBaseline(const sim::MachineConfig &machine,
                                 const workload::FunctionSpec &spec,
                                 sim::FrequencyPolicy policy =
                                     sim::FrequencyPolicy::Fixed);

/**
 * Run the full calibration procedure. The stress cells run on a pool
 * with one thread per CPU the calling thread may run on (its affinity
 * mask), capped at the cell count; the result does not depend on it.
 */
CalibrationProfile calibrate(const CalibrationConfig &cfg);

/** calibrate() with the stress cells on @p pool (any thread count). */
CalibrationProfile calibrate(const CalibrationConfig &cfg, EpochPool &pool);

/**
 * The provider's standard dedicated-core sweep for a machine: subject
 * on CPU 0, generators on CPUs 1..level, levels 2,4,... capped by the
 * machine's hardware-thread count (and the paper's 26). This is the
 * sweep ProfileStore runs when a machine type is first priced.
 */
CalibrationConfig dedicatedCalibrationFor(sim::MachineConfig machine);

} // namespace litmus::pricing

#endif // LITMUS_CORE_CALIBRATION_H
