/**
 * @file
 * The schedulable unit of work and its resource demand description.
 *
 * A Task tells the simulator, for its current execution phase, how it
 * uses the machine: base private CPI, L2-miss traffic into the shared
 * domain, L3 footprint, streaming behaviour, and memory-level
 * parallelism. Concrete tasks (serverless functions, traffic-generator
 * threads) are defined in the workload library.
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

/**
 * Abstract schedulable task.
 *
 * The engine drives a task by querying demand(), asking how many
 * instructions remain in the current phase, and retiring instructions.
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
     * @param probe_window instructions after which the probe snapshot
     *        closes (0 disables probing; traffic generators use 0)
     */
    Task(std::string name, Instructions probe_window = noProbe);

    virtual ~Task() = default;

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    /** Demand of the current phase. Undefined once finished(). */
    virtual const ResourceDemand &demand() const = 0;

    /** Instructions left in the current phase (infinity for endless). */
    virtual Instructions remainingInPhase() const = 0;

    /** Retire n instructions; may advance to the next phase. */
    virtual void retire(Instructions n) = 0;

    /** True when the task has no more work. */
    virtual bool finished() const = 0;

    /**
     * How many of the next quanta, at most @p limit, the engine may
     * replay at once, each retiring exactly @p step instructions. For
     * every one of those k quanta, remainingInPhase() must exceed
     * @p step before its retire(step), and that retire must not end
     * the phase. The engine then calls retireRepeated(step, k). The
     * default, 0, keeps the engine stepping one quantum at a time.
     */
    virtual std::uint64_t steadyRetirements(Instructions /*step*/,
                                            std::uint64_t /*limit*/) const
    {
        return 0;
    }

    /**
     * Retire @p step instructions @p k times: the state of k retire()
     * calls, for k no greater than steadyRetirements(step, ...).
     */
    virtual void retireRepeated(Instructions step, std::uint64_t k)
    {
        for (; k > 0; --k)
            retire(step);
    }

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
    std::string name_;
    std::uint64_t id_ = 0;
    std::vector<unsigned> affinity_;
    TaskCounters counters_;
    Instructions probeWindow_;
    ProbeCapture probe_;
    Seconds launchTime_ = 0;
    Seconds completionTime_ = 0;
};

/** Infinity marker for endless phases (traffic generators). */
constexpr Instructions endlessPhase =
    std::numeric_limits<Instructions>::infinity();

} // namespace litmus::sim

#endif // LITMUS_SIM_TASK_H
