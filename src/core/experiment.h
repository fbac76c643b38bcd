/**
 * @file
 * Experiment harness: the common motion behind Figures 2-4 and 11-21.
 *
 * Every evaluation runs the same loop: maintain a churning population
 * of co-running functions, launch each test function repeatedly into
 * that population, price each invocation three ways (commercial /
 * Litmus / ideal), and aggregate per-function rows plus suite gmeans.
 * The bench binaries configure this harness and print its rows.
 */

#ifndef LITMUS_CORE_EXPERIMENT_H
#define LITMUS_CORE_EXPERIMENT_H

#include <optional>
#include <string>

#include "core/pricing_model.h"
#include "workload/invoker.h"

namespace litmus::pricing
{

/** Configuration of one pricing experiment. */
struct ExperimentConfig
{
    sim::MachineConfig machine = sim::MachineCatalog::get("cascade-5218");
    sim::FrequencyPolicy policy = sim::FrequencyPolicy::Fixed;

    /** Co-runner population maintained by the invoker. */
    unsigned coRunners = 26;
    workload::InvokerConfig::Placement placement =
        workload::InvokerConfig::Placement::OnePerCore;

    /** CPUs the co-runners use. */
    std::vector<unsigned> coRunnerCpus;

    /** CPUs the test function may use (its own core, or the pool). */
    std::vector<unsigned> subjectCpus;

    /** Sampling pool for co-runners (defaults to the whole suite). */
    std::vector<const workload::FunctionSpec *> coRunnerPool;

    /** Functions to measure (defaults to the paper's test set). */
    std::vector<const workload::FunctionSpec *> subjects;

    /** Invocations per test function (the paper runs 30). */
    unsigned repetitions = 6;

    /** Method 1 sharing factor (1 = off / Method 2). */
    double sharingFactor = 1.0;

    /** Probe window override in instructions (0 = language default). */
    Instructions probeWindowOverride = 0;

    /** Simulated warmup before the first measurement. */
    Seconds warmup = 0.15;

    std::uint64_t seed = 42;

    /**
     * Convenience: fill coRunnerCpus/subjectCpus for the two standard
     * layouts. OnePerCore: subject on CPU 0, co-runners on 1..N.
     * Pooled: both share CPUs [0, pool_cpus).
     */
    void layoutOnePerCore();
    void layoutPooled(unsigned pool_cpus);

    void validate() const;
};

/** Per-test-function aggregate (one row of Figures 11-13). */
struct FunctionRow
{
    std::string name;

    /** Mean normalized prices (commercial = 1). */
    double litmusPrice = 1.0;
    double idealPrice = 1.0;

    /** Figure 12 weighted error rates. */
    double privError = 0.0;
    double sharedError = 0.0;
    double totalError = 0.0;

    /** Figure 13: measured component slowdowns (per instruction). */
    double tPrivSlowdown = 1.0;
    double tSharedSlowdown = 1.0;

    /** Mean Litmus-predicted component slowdowns (discount lines). */
    double predictedPriv = 1.0;
    double predictedShared = 1.0;

    /** Mean total execution slowdown (Figure 2). */
    double totalSlowdown = 1.0;

    /** Fraction of solo execution spent on shared resources (Fig 4). */
    double sharedShareSolo = 0.0;

    unsigned invocations = 0;
};

/** Whole-experiment result. */
struct ExperimentResult
{
    std::vector<FunctionRow> rows;

    /** Gmean normalized prices across rows. */
    double gmeanLitmusPrice = 1.0;
    double gmeanIdealPrice = 1.0;

    /** Discounts (1 - price). */
    double litmusDiscount() const { return 1.0 - gmeanLitmusPrice; }
    double idealDiscount() const { return 1.0 - gmeanIdealPrice; }

    /** Gmean of per-row |total error| (Figure 12 "abs geomean"). */
    double absGmeanError = 0.0;

    /** Gmean component slowdowns across rows (Figure 3 summary). */
    double gmeanPrivSlowdown = 1.0;
    double gmeanSharedSlowdown = 1.0;
    double gmeanTotalSlowdown = 1.0;

    const FunctionRow &row(const std::string &name) const;
};

/**
 * Run a pricing experiment against a calibrated model.
 *
 * Solo baselines for the subjects are measured internally (always at
 * the fixed-frequency policy, as the paper's normalization does).
 */
ExperimentResult runPricingExperiment(const ExperimentConfig &cfg,
                                      const DiscountModel &model);

/**
 * Slowdown-only variant for Figures 2-4 (no pricing model needed):
 * same population motion, reports the measured slowdown columns only.
 */
ExperimentResult runSlowdownExperiment(const ExperimentConfig &cfg);

} // namespace litmus::pricing

#endif // LITMUS_CORE_EXPERIMENT_H
