/**
 * @file
 * Phase programs and the task that executes them.
 *
 * A PhaseProgram is the static description of a workload (a sequence
 * of phases); ProgramTask is the schedulable instantiation that walks
 * through it, optionally applying per-invocation jitter.
 */

#ifndef LITMUS_WORKLOAD_PROGRAM_H
#define LITMUS_WORKLOAD_PROGRAM_H

#include <string>
#include <vector>

#include "workload/phase.h"

namespace litmus::workload
{

/** Immutable sequence of phases. */
class PhaseProgram
{
  public:
    PhaseProgram() = default;

    /** Build from phases; validates each. */
    explicit PhaseProgram(std::vector<Phase> phases);

    /** Append a phase (builder style). */
    PhaseProgram &append(Phase phase);

    const std::vector<Phase> &phases() const { return phases_; }
    std::size_t size() const { return phases_.size(); }
    bool empty() const { return phases_.empty(); }

    /** Total instructions across all phases. */
    Instructions totalInstructions() const;

  private:
    std::vector<Phase> phases_;
};

/**
 * Task that executes a phase program to completion.
 */
class ProgramTask : public sim::Task
{
  public:
    /**
     * @param name         display name
     * @param program      phases to execute (jitter already applied by
     *                     the caller when desired)
     * @param probe_window Litmus-probe window in instructions (0 = off)
     */
    ProgramTask(std::string name, PhaseProgram program,
                Instructions probe_window = sim::Task::noProbe);

    const sim::ResourceDemand &demand() const override;
    Instructions remainingInPhase() const override;
    void retire(Instructions n) override;
    bool finished() const override;
    std::uint64_t steadyRetirements(Instructions step,
                                    std::uint64_t limit) const override;
    void retireRepeated(Instructions step, std::uint64_t k) override;

    /** Index of the phase currently executing. */
    std::size_t phaseIndex() const { return index_; }

    const PhaseProgram &program() const { return program_; }

  private:
    PhaseProgram program_;
    std::size_t index_ = 0;
    Instructions retiredInPhase_ = 0;
};

/**
 * Endless task repeating a single demand forever (traffic-generator
 * threads). finished() is always false; experiments bound it by time.
 */
class EndlessTask : public sim::Task
{
  public:
    EndlessTask(std::string name, sim::ResourceDemand demand);

    const sim::ResourceDemand &demand() const override { return demand_; }
    Instructions remainingInPhase() const override;
    void retire(Instructions n) override;
    bool finished() const override { return false; }
    /** Every quantum of an endless phase is steady. */
    std::uint64_t steadyRetirements(Instructions,
                                    std::uint64_t limit) const override
    {
        return limit;
    }
    void retireRepeated(Instructions, std::uint64_t) override {}

  private:
    sim::ResourceDemand demand_;
};

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_PROGRAM_H
