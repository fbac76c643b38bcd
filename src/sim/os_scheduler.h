/**
 * @file
 * OS CPU scheduler: per-CPU round-robin queues with affinity,
 * slice-expiry rotation, idle rebalancing, and the temporal-sharing
 * cost model (context-switch cycles + cache-warmth CPI inflation).
 *
 * Section 7.2 relaxes the one-function-per-core assumption: functions
 * temporally share CPUs, and the switching overhead — which the paper
 * shows grows logarithmically with the co-runner count and saturates
 * around 20 (Figure 14) — predominantly inflates T_private.
 */

#ifndef LITMUS_SIM_OS_SCHEDULER_H
#define LITMUS_SIM_OS_SCHEDULER_H

#include <deque>
#include <unordered_set>
#include <vector>

#include "sim/machine_config.h"
#include "sim/task.h"

namespace litmus::sim
{

/**
 * Non-owning scheduler over the machine's hardware threads.
 *
 * CPU indices are hardware-thread indices: cpu = core * smtWays + way.
 */
class OsScheduler
{
  public:
    explicit OsScheduler(const MachineConfig &cfg);

    /** Place a task on the least-loaded CPU its affinity allows. */
    void add(Task *task);

    /** Remove a task (completion); triggers idle rebalancing. */
    void remove(Task *task);

    /** Task currently running on cpu, or nullptr when idle. */
    Task *runningOn(unsigned cpu) const;

    /**
     * Advance slice accounting by dt; rotates expired slices and
     * accrues pending context-switch cycles for switched-in tasks.
     */
    void tick(Seconds dt);

    /**
     * Context-switch cycles waiting to be charged to the task running
     * on cpu; the engine consumes them (they burn cycles without
     * retiring instructions).
     */
    Cycles consumePendingSwitchCycles(unsigned cpu);

    /** Runnable tasks sharing cpu (including the running one). */
    unsigned queueLength(unsigned cpu) const;

    /**
     * Cache-warmth CPI multiplier for the task running on cpu:
     * 1 + maxPenalty * (1 - exp(-rate * (n - 1))) for n co-runners.
     */
    double warmthMult(unsigned cpu) const;

    /** Physical cores with at least one running task. */
    unsigned activeCores() const;

    /** True when the SMT sibling of cpu is running a task. */
    bool siblingBusy(unsigned cpu) const;

    /** @name POPPA sampling support @{ */
    /**
     * Freeze / unfreeze a task: a frozen task stays queued but is
     * skipped by runningOn(), modelling the co-runner stall that
     * POPPA-style sampling requires.
     */
    void setFrozen(Task *task, bool frozen);
    bool isFrozen(const Task *task) const;
    /** @} */

    /** Total runnable tasks across all CPUs. */
    unsigned totalTasks() const;

    /**
     * Summed L3 working sets (bytes) of queued tasks that are *not*
     * currently running — the cache-residue input to the contention
     * solver's capacity model.
     */
    double waitingWorkingSet() const;

    /** Same, restricted to CPUs in [cpu_begin, cpu_end). */
    double waitingWorkingSet(unsigned cpu_begin, unsigned cpu_end) const;

    unsigned cpuCount() const { return static_cast<unsigned>(cpus_.size()); }

    /** Expose the warmth curve itself (Figure 14 bench). */
    double warmthForCount(unsigned co_runners) const;

    /**
     * Topology version: bumped by every mutation that can change what
     * runs where (add, remove, freeze, slice rotation, rebalancing).
     * While it is unchanged, runningOn()/warmthMult()/siblingBusy()/
     * waitingWorkingSet() all return the same answers, which is what
     * lets the engine fast-forward steady stretches without re-asking.
     */
    std::uint64_t version() const { return version_; }

    /** True while some CPU queues two or more tasks; otherwise tick()
     *  is a no-op. */
    bool crowded() const { return crowdedCpus_ != 0; }

  private:
    struct CpuState
    {
        std::deque<Task *> queue;
        Seconds sliceUsed = 0;
        Cycles pendingSwitchCycles = 0;
    };

    /** CPUs the task may use (affinity or all). */
    std::vector<unsigned> allowedCpus(const Task *task) const;

    /** Move one waiting task onto an idle CPU when possible. */
    void rebalance();

    const MachineConfig &cfg_;
    std::vector<CpuState> cpus_;
    // LITMUS-LINT-ALLOW(unordered-decl): membership queries only (contains/insert/erase); never iterated, so its order cannot reach any output
    std::unordered_set<const Task *> frozen_;
    std::uint64_t version_ = 0;
    /** CPUs with >= 2 queued tasks (tick() fast-path bookkeeping). */
    unsigned crowdedCpus_ = 0;
};

} // namespace litmus::sim

#endif // LITMUS_SIM_OS_SCHEDULER_H
