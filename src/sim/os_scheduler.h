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

#include <cstdint>
#include <deque>
#include <limits>
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
    /**
     * @param quantum the simulated time each tick() advances: the
     *        engine's quantum, which may override cfg.quantum. Both it
     *        and cfg.timeSlice must be positive and finite.
     */
    OsScheduler(const MachineConfig &cfg, Seconds quantum);

    /**
     * Place a task on the least-loaded CPU its affinity allows. The
     * affinity is read here, once: changing it while the task is
     * queued does not move or re-pin it.
     */
    void add(Task *task);

    /** Remove a task (completion); triggers idle rebalancing. */
    void remove(Task *task);

    /** Task currently running on cpu, or nullptr when idle. */
    Task *runningOn(unsigned cpu) const;

    /**
     * Advance slice accounting by one quantum; rotates expired slices
     * and accrues pending context-switch cycles for switched-in tasks.
     *
     * A CPU's slice expires on the R-th tick after it started, where
     * R is the first count of quanta whose repeated floating-point sum
     * from zero reaches cfg.timeSlice (no expiry if that sum stalls
     * short of it). A slice starts when a queue reaches two tasks,
     * when the running task leaves a queue that still holds two, and
     * at every rotation. Between expiries a tick is O(1): the CPUs
     * are scanned, in index order, only at a tick where one may be due.
     */
    void tick();

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
     * runs where (add, remove, freeze, slice rotation, rebalancing);
     * a tick() that rotates no slice leaves it alone. While it is
     * unchanged, runningOn()/warmthMult()/siblingBusy()/
     * waitingWorkingSet() all return the same answers, which is what
     * lets the engine fast-forward steady stretches without re-asking.
     */
    std::uint64_t version() const { return version_; }

    /**
     * True while some CPU queues two or more tasks. Otherwise no slice
     * can expire, so tick() only counts the quantum, and a completion
     * has no waiting task to rebalance.
     */
    bool crowded() const { return crowdedCpus_ != 0; }

  private:
    /** No allowed-CPU mask: the task may run anywhere. */
    static constexpr std::uint32_t kAnyCpu =
        std::numeric_limits<std::uint32_t>::max();
    static constexpr std::uint64_t kNever =
        std::numeric_limits<std::uint64_t>::max();

    /** A queued task and the slot of its allowed-CPU mask. */
    struct Queued
    {
        Task *task;
        std::uint32_t mask; ///< index into masks_, or kAnyCpu
    };

    struct CpuState
    {
        std::deque<Queued> queue;
        /** Tick count at which the current slice began; meaningful
         *  while the queue holds two or more tasks. */
        std::uint64_t sliceStart = 0;
        Cycles pendingSwitchCycles = 0;
    };

    /** Record a pinned task's affinity as a bitmask, fatal() on a CPU
     *  the machine lacks; returns its slot. */
    std::uint32_t pinMask(const Task *task);

    /** True when the queued task may run on cpu. */
    bool allows(const Queued &entry, unsigned cpu) const
    {
        return entry.mask == kAnyCpu ||
               ((masks_[entry.mask * maskWords_ + cpu / 64] >> (cpu % 64)) &
                1) != 0;
    }

    /** Begin a new slice on cpu at the current tick. */
    void startSlice(CpuState &cpu);

    /** Move one waiting task onto an idle CPU when possible. */
    void rebalance();

    const MachineConfig &cfg_;
    std::vector<CpuState> cpus_;
    /** Allowed-CPU bitmasks of the queued pinned tasks, maskWords_
     *  words per slot; slots in freeMasks_ are unused. */
    std::vector<std::uint64_t> masks_;
    std::vector<std::uint32_t> freeMasks_;
    std::size_t maskWords_;
    // LITMUS-LINT-ALLOW(unordered-decl): membership queries only (contains/insert/erase); never iterated, so its order cannot reach any output
    std::unordered_set<const Task *> frozen_;
    std::uint64_t version_ = 0;
    /** CPUs with >= 2 queued tasks (tick() fast-path bookkeeping). */
    unsigned crowdedCpus_ = 0;
    /** Ticks per slice (R above); 0 when slices never expire. */
    std::uint64_t sliceTicks_ = 0;
    /** tick() calls so far. */
    std::uint64_t ticks_ = 0;
    /** No slice expires before this tick (a lower bound). */
    std::uint64_t nextDue_ = kNever;
};

} // namespace litmus::sim

#endif // LITMUS_SIM_OS_SCHEDULER_H
