#include "sim/task.h"

#include "common/logging.h"
#include "common/repeated_add.h"

namespace litmus::sim
{

void
ResourceDemand::validate() const
{
    if (cpi0 <= 0.0)
        fatal("ResourceDemand: cpi0 must be positive, got ", cpi0);
    if (l2Mpki < 0.0)
        fatal("ResourceDemand: l2Mpki must be non-negative");
    if (l3MissBase < 0.0 || l3MissBase > 1.0)
        fatal("ResourceDemand: l3MissBase must be in [0,1], got ",
              l3MissBase);
    if (mlp < 1.0)
        fatal("ResourceDemand: mlp must be >= 1, got ", mlp);
}

void
Phase::validate() const
{
    if (instructions <= 0)
        fatal("Phase ", name, ": instructions must be positive");
    demand.validate();
}

Instructions
totalInstructions(const std::vector<Phase> &phases)
{
    Instructions total = 0;
    for (const Phase &phase : phases)
        total += phase.instructions;
    return total;
}

Task::Task(std::string name, std::vector<Phase> phases,
           Instructions probe_window)
    : name_(std::move(name)), phases_(std::move(phases)),
      probeWindow_(probe_window)
{
    if (probe_window < 0)
        fatal("Task: negative probe window");
    if (phases_.empty())
        fatal("Task ", name_, ": empty phase list");
    for (const Phase &phase : phases_)
        phase.validate();
}

Task::Task(std::string name, const ResourceDemand &demand)
    : Task(std::move(name), {Phase{"endless", endlessPhase, demand}})
{
}

std::uint64_t
Task::steadyRetirements(Instructions step, std::uint64_t limit) const
{
    if (finished())
        return 0;
    const Instructions phase = phases_[index_].instructions;
    // Every quantum of an endless phase is steady.
    if (phase == endlessPhase)
        return limit;
    if (!(step > 0))
        return 0;
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
Task::retireRepeated(Instructions step, std::uint64_t k)
{
    if (finished())
        usedAfterCompletion("retireRepeated");
    retiredInPhase_ = addRepeated(retiredInPhase_, step, k);
}

void
Task::usedAfterCompletion(const char *what)
{
    panic("Task::", what, " after completion");
}

} // namespace litmus::sim
