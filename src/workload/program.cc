#include "workload/program.h"

#include "common/logging.h"
#include "common/repeated_add.h"

namespace litmus::workload
{

namespace
{

/** A phase ends once this close to its instruction count. */
constexpr Instructions kPhaseEndSlack = 1e-6;

} // namespace

PhaseProgram::PhaseProgram(std::vector<Phase> phases)
    : phases_(std::move(phases))
{
    for (const Phase &phase : phases_)
        phase.validate();
}

PhaseProgram &
PhaseProgram::append(Phase phase)
{
    phase.validate();
    phases_.push_back(std::move(phase));
    return *this;
}

Instructions
PhaseProgram::totalInstructions() const
{
    Instructions total = 0;
    for (const Phase &phase : phases_)
        total += phase.instructions;
    return total;
}

ProgramTask::ProgramTask(std::string name, PhaseProgram program,
                         Instructions probe_window)
    : Task(std::move(name), probe_window), program_(std::move(program))
{
    if (program_.empty())
        fatal("ProgramTask ", this->name(), ": empty program");
}

const sim::ResourceDemand &
ProgramTask::demand() const
{
    if (finished())
        panic("ProgramTask::demand after completion");
    return program_.phases()[index_].demand;
}

Instructions
ProgramTask::remainingInPhase() const
{
    if (finished())
        return 0;
    return program_.phases()[index_].instructions - retiredInPhase_;
}

void
ProgramTask::retire(Instructions n)
{
    if (finished())
        panic("ProgramTask::retire after completion");
    retiredInPhase_ += n;
    while (index_ < program_.size() &&
           retiredInPhase_ >= program_.phases()[index_].instructions -
                                  kPhaseEndSlack) {
        retiredInPhase_ -= program_.phases()[index_].instructions;
        if (retiredInPhase_ < 0)
            retiredInPhase_ = 0;
        ++index_;
    }
}

std::uint64_t
ProgramTask::steadyRetirements(Instructions step, std::uint64_t limit) const
{
    if (finished() || !(step > 0))
        return 0;
    const Instructions phase = program_.phases()[index_].instructions;
    // The engine's replay guard before the k-th retirement and
    // retire()'s phase-end test after it, on the exact bits k - 1 and
    // k retirements reach. Both only tighten as k grows, so a k that
    // passes them passes them for every earlier quantum too.
    const auto fits = [&](std::uint64_t k) {
        const Instructions before =
            addRepeated(retiredInPhase_, step, k - 1);
        return phase - before > step &&
               !(before + step >= phase - kPhaseEndSlack);
    };
    // About headroom - 1 quanta pass the guard. Take two fewer, and
    // halve on the rare estimate that rounding still carries too far.
    const double spare = (phase - retiredInPhase_) / step - 3;
    if (!(spare >= 1))
        return 0;
    std::uint64_t k = spare < static_cast<double>(limit)
                          ? static_cast<std::uint64_t>(spare)
                          : limit;
    while (k > 0 && !fits(k))
        k /= 2;
    return k;
}

void
ProgramTask::retireRepeated(Instructions step, std::uint64_t k)
{
    if (finished())
        panic("ProgramTask::retireRepeated after completion");
    retiredInPhase_ = addRepeated(retiredInPhase_, step, k);
}

bool
ProgramTask::finished() const
{
    return index_ >= program_.size();
}

EndlessTask::EndlessTask(std::string name, sim::ResourceDemand demand)
    : Task(std::move(name)), demand_(demand)
{
    demand_.validate();
}

Instructions
EndlessTask::remainingInPhase() const
{
    return sim::endlessPhase;
}

void
EndlessTask::retire(Instructions)
{
    // Endless work: nothing to track.
}

} // namespace litmus::workload
