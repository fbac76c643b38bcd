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

Instructions
FunctionSpec::bodyInstructions() const
{
    Instructions total = 0;
    for (const Phase &phase : body)
        total += phase.instructions;
    return total;
}

PhaseProgram
FunctionSpec::nominalProgram() const
{
    PhaseProgram program = startupProgram(language);
    for (const Phase &phase : body)
        program.append(phase);
    return program;
}

void
FunctionSpec::validate() const
{
    if (name.empty())
        fatal("FunctionSpec: empty name");
    if (body.empty())
        fatal("FunctionSpec ", name, ": needs at least one body phase");
    for (const Phase &phase : body)
        phase.validate();
    if (memoryFootprint == 0)
        fatal("FunctionSpec ", name, ": zero memory footprint");
}

std::unique_ptr<ProgramTask>
makeInvocation(const FunctionSpec &spec, Rng &rng,
               const InvocationOptions &opts)
{
    spec.validate();
    PhaseProgram program = startupProgram(spec.language);
    for (const Phase &phase : spec.body) {
        program.append(
            jitterPhase(phase, rng, kInstructionJitter, kMemoryJitter));
    }
    Instructions window = sim::Task::noProbe;
    if (opts.withProbe) {
        window = opts.probeWindow > 0 ? opts.probeWindow
                                      : probeWindow(spec.language);
        // The probe is only meaningful over the common startup prefix.
        window = std::min(
            window,
            startupProgram(spec.language).totalInstructions() * 0.9);
    }
    return std::make_unique<ProgramTask>(spec.name, std::move(program),
                                         window);
}

std::unique_ptr<ProgramTask>
makeWarmInvocation(const FunctionSpec &spec, Rng &rng)
{
    spec.validate();
    PhaseProgram program;
    for (const Phase &phase : spec.body) {
        program.append(
            jitterPhase(phase, rng, kInstructionJitter, kMemoryJitter));
    }
    return std::make_unique<ProgramTask>(spec.name, std::move(program),
                                         sim::Task::noProbe);
}

std::unique_ptr<ProgramTask>
makeNominalInvocation(const FunctionSpec &spec, bool with_probe)
{
    spec.validate();
    const Instructions window =
        with_probe ? probeWindow(spec.language) : sim::Task::noProbe;
    return std::make_unique<ProgramTask>(spec.name,
                                         spec.nominalProgram(), window);
}

} // namespace litmus::workload
