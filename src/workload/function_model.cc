#include <algorithm>

#include "workload/function_model.h"

#include "common/logging.h"

namespace litmus::workload
{

namespace
{

/** Relative per-invocation jitter of body phases: instruction counts
 *  and memory intensity. */
constexpr double kInstructionJitter = 0.015;
constexpr double kMemoryJitter = 0.02;

} // namespace

std::vector<sim::Phase>
FunctionSpec::nominalProgram() const
{
    std::vector<sim::Phase> phases = startupProgram(language);
    phases.insert(phases.end(), body.begin(), body.end());
    return phases;
}

void
FunctionSpec::validate() const
{
    if (name.empty())
        fatal("FunctionSpec: empty name");
    if (body.empty())
        fatal("FunctionSpec ", name, ": needs at least one body phase");
    for (const sim::Phase &phase : body)
        phase.validate();
    if (memoryFootprint == 0)
        fatal("FunctionSpec ", name, ": zero memory footprint");
}

sim::Phase
jitterPhase(const sim::Phase &phase, Rng &rng, double inst_rel,
            double mem_rel)
{
    sim::Phase out = phase;
    out.instructions = phase.instructions * rng.jitter(inst_rel);
    out.demand.l2Mpki = phase.demand.l2Mpki * rng.jitter(mem_rel);
    return out;
}

std::unique_ptr<sim::Task>
makeInvocation(const FunctionSpec &spec, Rng &rng,
               const InvocationOptions &opts)
{
    spec.validate();
    const std::vector<sim::Phase> &startup = startupProgram(spec.language);
    std::vector<sim::Phase> phases = startup;
    for (const sim::Phase &phase : spec.body)
        phases.push_back(
            jitterPhase(phase, rng, kInstructionJitter, kMemoryJitter));
    Instructions window = sim::Task::noProbe;
    if (opts.withProbe) {
        window = opts.probeWindow > 0 ? opts.probeWindow
                                      : probeWindow(spec.language);
        // The probe is only meaningful over the common startup prefix.
        window = std::min(window, sim::totalInstructions(startup) * 0.9);
    }
    return std::make_unique<sim::Task>(spec.name, std::move(phases),
                                       window);
}

std::unique_ptr<sim::Task>
makeWarmInvocation(const FunctionSpec &spec, Rng &rng)
{
    spec.validate();
    std::vector<sim::Phase> phases;
    for (const sim::Phase &phase : spec.body)
        phases.push_back(
            jitterPhase(phase, rng, kInstructionJitter, kMemoryJitter));
    return std::make_unique<sim::Task>(spec.name, std::move(phases),
                                       sim::Task::noProbe);
}

std::unique_ptr<sim::Task>
makeNominalInvocation(const FunctionSpec &spec, bool with_probe)
{
    spec.validate();
    const Instructions window =
        with_probe ? probeWindow(spec.language) : sim::Task::noProbe;
    return std::make_unique<sim::Task>(spec.name, spec.nominalProgram(),
                                       window);
}

} // namespace litmus::workload
