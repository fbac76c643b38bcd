/**
 * @file
 * The one schedulable unit of work: a named list of phases.
 *
 * Every piece of work the simulator runs is a list of phases, each a
 * resource demand (base private CPI, L2-miss traffic into the shared
 * domain, L3 footprint, streaming behaviour, memory-level parallelism)
 * held for an instruction budget: a serverless function is its
 * language startup followed by its body, and a CT-Gen or MB-Gen thread
 * is one endless phase. Task walks the list as the engine retires
 * instructions and tells the engine how many upcoming quanta are
 * phase-steady, which is what batched replay relies on.
 */

#ifndef LITMUS_SIM_TASK_H
#define LITMUS_SIM_TASK_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/pmu.h"

namespace litmus::sim
{

/**
 * Instantaneous resource demand of a task phase.
 *
 * These five parameters fully determine how the contention solver
 * treats the thread during a quantum.
 */
struct ResourceDemand
{
    /** Base cycles per instruction on private resources (core+L1+L2). */
    double cpi0 = 1.0;

    /** L2 misses per kilo-instruction: traffic into the shared domain. */
    double l2Mpki = 0.0;

    /** Bytes the phase wants resident in the shared L3. */
    Bytes l3WorkingSet = 0;

    /**
     * Fraction of L2 misses that miss the L3 even with a full-capacity
     * share (streaming / compulsory misses).
     */
    double l3MissBase = 0.0;

    /** Memory-level parallelism: overlapping misses divide the stall. */
    double mlp = 1.0;

    /** Sanity-check ranges; fatal() on nonsense. */
    void validate() const;
};

/**
 * Snapshot pair captured around the Litmus-probe window (the first N
 * startup instructions). Raw counters only; interpretation lives in
 * the pricing library.
 */
struct ProbeCapture
{
    bool started = false;
    bool complete = false;
    TaskCounters taskAtStart;
    TaskCounters taskAtEnd;
    MachineCounters machineAtStart;
    MachineCounters machineAtEnd;
};

/** Infinity marker for endless phases (traffic generators). */
constexpr Instructions endlessPhase =
    std::numeric_limits<Instructions>::infinity();

/**
 * A stretch of execution with stable behaviour (an import burst, a
 * compute loop, a streaming pass): the engine treats its demand as
 * constant and switches phase at retirement boundaries.
 */
struct Phase
{
    /** Diagnostic name, e.g. "import-site" or "body". */
    std::string name;

    /** Instructions the phase retires (endlessPhase: forever). */
    Instructions instructions = 0;

    /** Resource demand while the phase runs. */
    ResourceDemand demand;

    /** Sanity checks; fatal() on nonsense. */
    void validate() const;
};

/** Total instructions of @p phases, summed front to back. */
Instructions totalInstructions(const std::vector<Phase> &phases);

/**
 * A task: walks its phase list as the engine retires instructions.
 *
 * The engine drives a task by querying demand(), asking how many
 * instructions remain in the current phase, and retiring instructions.
 * demand() returns a reference into the phase list, so its address
 * identifies the current phase; the engine's replay plan compares it
 * to tell that a task is still in the phase the plan was solved for.
 * Ownership: the Engine owns tasks via unique_ptr; observers hold
 * non-owning pointers that stay valid until completion callbacks run.
 */
class Task
{
  public:
    /** Marker for "no probe" windows. */
    static constexpr Instructions noProbe = 0;

    /**
     * @param name display name, e.g. "pager-py" or "ctgen-7"
     * @param phases the work, in order; must not be empty, and each
     *        phase is validated
     * @param probe_window instructions after which the probe snapshot
     *        closes (0 disables probing; traffic generators use 0)
     */
    Task(std::string name, std::vector<Phase> phases,
         Instructions probe_window = noProbe);

    /**
     * An endless task: one phase of endlessPhase instructions at
     * @p demand (CT-Gen and MB-Gen threads). It never finishes;
     * experiments bound it by time.
     */
    Task(std::string name, const ResourceDemand &demand);

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    /** @name Phase walk @{ */
    /** Demand of the current phase. Panics once finished(). */
    const ResourceDemand &demand() const
    {
        if (finished())
            usedAfterCompletion("demand");
        return phases_[index_].demand;
    }

    /** Instructions left in the current phase (infinity for endless). */
    Instructions remainingInPhase() const
    {
        if (finished())
            return 0;
        return phases_[index_].instructions - retiredInPhase_;
    }

    /**
     * Retire @p n instructions. A phase ends once the retired count is
     * within kPhaseEndSlack of its length; the excess carries into the
     * next phase.
     */
    void retire(Instructions n)
    {
        if (finished())
            usedAfterCompletion("retire");
        retiredInPhase_ += n;
        while (index_ < phases_.size() &&
               retiredInPhase_ >=
                   phases_[index_].instructions - kPhaseEndSlack) {
            retiredInPhase_ -= phases_[index_].instructions;
            if (retiredInPhase_ < 0)
                retiredInPhase_ = 0;
            ++index_;
        }
    }

    /** True when the task has no more work. */
    bool finished() const { return index_ >= phases_.size(); }

    /**
     * How many of the next quanta, at most @p limit, the engine may
     * replay at once, each retiring exactly @p step instructions. For
     * every one of those k quanta, remainingInPhase() exceeds @p step
     * before its retire(step), and that retire does not end the phase.
     * An endless phase returns @p limit; a finished task, or a step
     * that is not positive, returns 0.
     */
    std::uint64_t steadyRetirements(Instructions step,
                                    std::uint64_t limit) const;

    /**
     * Retire @p step instructions @p k times: the state of k retire()
     * calls, for k no greater than steadyRetirements(step, ...).
     */
    void retireRepeated(Instructions step, std::uint64_t k);

    /** Index of the phase currently executing. */
    std::size_t phaseIndex() const { return index_; }

    const std::vector<Phase> &phases() const { return phases_; }
    /** @} */

    /** @name Identity and placement @{ */
    const std::string &name() const { return name_; }

    std::uint64_t id() const { return id_; }
    void setId(std::uint64_t id) { id_ = id; }

    /**
     * CPUs this task may run on (hardware-thread indices). Empty means
     * "any CPU".
     */
    const std::vector<unsigned> &affinity() const { return affinity_; }
    void setAffinity(std::vector<unsigned> cpus) { affinity_ = std::move(cpus); }
    /** @} */

    /** @name Accounting (filled by the engine) @{ */
    TaskCounters &counters() { return counters_; }
    const TaskCounters &counters() const { return counters_; }

    Seconds launchTime() const { return launchTime_; }
    Seconds completionTime() const { return completionTime_; }
    void setLaunchTime(Seconds t) { launchTime_ = t; }
    void setCompletionTime(Seconds t) { completionTime_ = t; }
    /** @} */

    /** @name Litmus probe window @{ */
    Instructions probeWindow() const { return probeWindow_; }
    ProbeCapture &probe() { return probe_; }
    const ProbeCapture &probe() const { return probe_; }
    /** @} */

  private:
    /** A phase ends once this close to its instruction count. */
    static constexpr Instructions kPhaseEndSlack = 1e-6;

    /** panic(): @p what was called on a finished task. */
    [[noreturn]] static void usedAfterCompletion(const char *what);

    std::string name_;
    std::vector<Phase> phases_;
    std::size_t index_ = 0;
    Instructions retiredInPhase_ = 0;
    std::uint64_t id_ = 0;
    std::vector<unsigned> affinity_;
    TaskCounters counters_;
    Instructions probeWindow_;
    ProbeCapture probe_;
    Seconds launchTime_ = 0;
    Seconds completionTime_ = 0;
};

} // namespace litmus::sim

#endif // LITMUS_SIM_TASK_H
