/**
 * @file
 * Serverless function models: spec (static description) and task
 * factory (per-invocation instantiation with jitter).
 *
 * A FunctionSpec describes one Table 1 benchmark: its language (which
 * fixes its startup program and probe window), the demand of its body
 * phases, and its memory footprint for billing. makeInvocation() turns
 * a spec into a schedulable task for one invocation.
 */

#ifndef LITMUS_WORKLOAD_FUNCTION_MODEL_H
#define LITMUS_WORKLOAD_FUNCTION_MODEL_H

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/runtime_startup.h"

namespace litmus::workload
{

/** Static description of one serverless function. */
struct FunctionSpec
{
    /** Benchmark name with language suffix, e.g. "pager-py". */
    std::string name;

    Language language = Language::Python;

    /** Table 1 asterisk: member of the provider's reference set. */
    bool reference = false;

    /** Member of the evaluation test set (x-axis of Figures 11-21). */
    bool testSet = false;

    /** Body phases, executed after the language startup. */
    std::vector<sim::Phase> body;

    /** Allocated memory for billing (pay-as-you-go GB-seconds). */
    Bytes memoryFootprint = 256_MiB;

    /** Startup + body as one phase list (no jitter). */
    std::vector<sim::Phase> nominalProgram() const;

    void validate() const;
};

/** Per-invocation options. */
struct InvocationOptions
{
    /** Capture the Litmus probe over the startup window. */
    bool withProbe = true;

    /**
     * Override the probe window length in instructions (0 = the
     * language default). Used by the probe-length ablation; must not
     * exceed the startup length or the probe loses its common
     * substrate.
     */
    Instructions probeWindow = 0;
};

/**
 * Apply per-invocation jitter to a phase: instruction count and memory
 * intensity wobble a little run to run (inputs differ, allocators
 * place data differently). Demand jitter is kept small so calibration
 * tables remain meaningful.
 *
 * @param phase    the nominal phase
 * @param rng      per-task random stream
 * @param inst_rel relative spread of the instruction count
 * @param mem_rel  relative spread of l2Mpki
 */
sim::Phase jitterPhase(const sim::Phase &phase, Rng &rng, double inst_rel,
                       double mem_rel);

/**
 * Instantiate one invocation of the function as a schedulable task.
 *
 * The startup phases are never jittered (they are the probe substrate
 * and must stay consistent across invocations); body phases receive
 * small per-invocation jitter from @p rng (1.5% on instruction counts,
 * 2% on memory intensity).
 */
std::unique_ptr<sim::Task> makeInvocation(const FunctionSpec &spec, Rng &rng,
                                          const InvocationOptions &opts =
                                              InvocationOptions{});

/**
 * Build the jitter-free invocation used for solo baselines so T_solo
 * is deterministic.
 */
std::unique_ptr<sim::Task> makeNominalInvocation(const FunctionSpec &spec,
                                                 bool with_probe = true);

/**
 * Instantiate a warm-start invocation: the runtime is already
 * initialized (a kept-alive container), so the language startup — and
 * with it the Litmus probe, whose substrate is the startup — is
 * skipped. Only the jittered body phases run.
 */
std::unique_ptr<sim::Task> makeWarmInvocation(const FunctionSpec &spec,
                                              Rng &rng);

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_FUNCTION_MODEL_H
