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

#include <algorithm>
#include <bit>
#include <cstdint>
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
     * How many tick() calls from now are sure to rotate nothing, so
     * each only counts the quantum: the ticks before the next possible
     * slice expiry, and the largest count while no CPU is crowded.
     * The bound can lag a drained queue (it is recomputed at the due
     * tick), never run ahead of a real expiry.
     */
    std::uint64_t quietTicks() const
    {
        if (crowdedCpus_ == 0)
            return kNever;
        return nextDue_ > ticks_ ? nextDue_ - ticks_ - 1 : 0;
    }

    /** @p k tick() calls at once; @p k must not exceed quietTicks(). */
    void skipQuietTicks(std::uint64_t k);

    /**
     * Context-switch cycles waiting to be charged to the task running
     * on cpu; the engine consumes them (they burn cycles without
     * retiring instructions).
     */
    Cycles consumePendingSwitchCycles(unsigned cpu);

    /** Runnable tasks sharing cpu (including the running one). */
    unsigned queueLength(unsigned cpu) const
    {
        return static_cast<unsigned>(cpus_[cpu].queue.size());
    }

    /**
     * Cache-warmth CPI multiplier for the task running on cpu:
     * 1 + maxPenalty * (1 - exp(-rate * (n - 1))) for n co-runners.
     */
    double warmthMult(unsigned cpu) const
    {
        return warmthForCount(queueLength(cpu));
    }

    /**
     * Physical cores with at least one running task. Walks the
     * occupied CPUs only, and each core's first running way.
     */
    unsigned activeCores() const;

    /**
     * Call @p visit(cpu) for each CPU in [begin, end) whose queue holds
     * a task, in index order: O(occupied CPUs + cpuCount() / 64).
     * @p visit must not add or remove tasks.
     */
    template <typename Visit>
    void forEachOccupied(unsigned begin, unsigned end, Visit visit) const
    {
        // No word before the first add(): nothing is occupied.
        end = std::min(end, static_cast<unsigned>(occupied_.size() * 64));
        for (unsigned base = begin - begin % 64; base < end; base += 64) {
            std::uint64_t word = occupied_[base / 64];
            if (base < begin)
                word &= ~std::uint64_t{0} << (begin - base);
            if (end - base < 64)
                word &= (std::uint64_t{1} << (end - base)) - 1;
            for (; word != 0; word &= word - 1)
                visit(base + static_cast<unsigned>(std::countr_zero(word)));
        }
    }

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
     * Summed L3 working sets (bytes) of the unfinished tasks queued on
     * CPUs [cpu_begin, cpu_end) that are *not* running there — the
     * cache-residue input to the contention solver's capacity model.
     *
     * O(cpu_end - cpu_begin), and O(1) while no CPU queues two tasks
     * and none is frozen: each CPU keeps the integer sum of its
     * waiting tasks' working sets, updated wherever a task joins or
     * leaves the part of a queue behind the running front. A waiting
     * task retires nothing, so its working set holds until it leaves.
     * The result equals the double sum in queue order bit for bit:
     * every partial sum of integers up to 2^53 is exact in a double.
     * Past 2^53, and while a task is frozen (a task behind a frozen
     * front may run and change phase), it is that recount.
     */
    double waitingWorkingSet(unsigned cpu_begin, unsigned cpu_end) const;

    unsigned cpuCount() const { return static_cast<unsigned>(cpus_.size()); }

    /**
     * The warmth curve itself (Figure 14 bench): warmthMult() of a CPU
     * queueing @p co_runners tasks. Every count up to the longest
     * queue so far is computed once and cached.
     */
    double warmthForCount(unsigned co_runners) const
    {
        return co_runners < warmth_.size() ? warmth_[co_runners]
                                           : warmthCurve(co_runners);
    }

    /**
     * Topology version: bumped by every mutation that can change what
     * runs where (add, remove, freeze, slice rotation, rebalancing);
     * a tick() that rotates no slice leaves it alone. While it is
     * unchanged, runningOn()/warmthMult()/siblingBusy()/
     * waitingWorkingSet() all return the same answers, which is what
     * lets the engine fast-forward steady stretches without re-asking.
     */
    std::uint64_t version() const { return version_; }

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
        /** The front task runs. A vector, not a deque: an empty one
         *  allocates nothing, and a fleet holds mostly empty queues. */
        std::vector<Queued> queue;
        /** Tick count at which the current slice began; meaningful
         *  while the queue holds two or more tasks. */
        std::uint64_t sliceStart = 0;
        Cycles pendingSwitchCycles = 0;
        /** Working-set bytes of the unfinished tasks behind the front,
         *  modulo 2^64 (waitingWraps_ counts the wraps). Stale while
         *  frozen_ is non-empty; resynced when it empties. */
        std::uint64_t waitingBytes = 0;
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

    /** The warmth formula, uncached. */
    double warmthCurve(unsigned co_runners) const;

    /** Mark cpu occupied or not in occupied_. */
    void setOccupied(unsigned cpu, bool occupied)
    {
        const std::uint64_t bit = std::uint64_t{1} << (cpu % 64);
        if (occupied)
            occupied_[cpu / 64] |= bit;
        else
            occupied_[cpu / 64] &= ~bit;
    }

    /** The lowest-index CPU with an empty queue, or cpuCount() when
     *  every CPU is occupied: O(cpuCount() / 64). */
    unsigned firstIdleCpu() const
    {
        // Bits past the last CPU stay clear, so a full machine's first
        // zero bit is cpuCount() itself, or there is none.
        for (std::size_t w = 0; w < occupied_.size(); ++w) {
            if (~occupied_[w] != 0)
                return static_cast<unsigned>(w * 64) +
                       static_cast<unsigned>(std::countr_one(occupied_[w]));
        }
        // No mask before the first add(): CPU 0 is empty.
        return occupied_.empty() ? 0 : cpuCount();
    }

    /** Begin a new slice on cpu at the current tick. */
    void startSlice(CpuState &cpu);

    /** Move one waiting task onto an idle CPU when possible. */
    void rebalance();

    /** @name Waiting working-set sums @{ */
    /** Add bytes to cpu's waiting sum, counting a wrap past 2^64. */
    void addWaitingBytes(CpuState &cpu, Bytes bytes);
    /** task joins the waiting part of cpu's queue. */
    void enterWaiting(CpuState &cpu, const Task *task);
    /** task leaves the waiting part of cpu's queue. */
    void leaveWaiting(CpuState &cpu, const Task *task);
    /**
     * The one recount: calls add(bytes) with the working set of each
     * unfinished task queued on cpu other than runningOn(cpu), in
     * queue order.
     */
    template <typename Add>
    void forEachWaiting(unsigned cpu, Add add) const;
    /** Recount every CPU's waiting sum (once nothing is frozen). */
    void resyncWaitingSums();
    /** @} */

    const MachineConfig &cfg_;
    std::vector<CpuState> cpus_;
    /** Allowed-CPU bitmasks of the queued pinned tasks, maskWords_
     *  words per slot; slots in freeMasks_ are unused. */
    std::vector<std::uint64_t> masks_;
    std::vector<std::uint32_t> freeMasks_;
    std::size_t maskWords_;
    /** rebalance()'s union of the waiting tasks' masks (scratch). */
    std::vector<std::uint64_t> reach_;
    /** Bit cpu % 64 of word cpu / 64 is set iff cpu's queue is
     *  non-empty: what forEachOccupied() walks. Allocated by the first
     *  add(), so a machine that never runs a task allocates nothing. */
    std::vector<std::uint64_t> occupied_;
    /** warmthCurve(n) for every n up to the longest queue so far
     *  (add() extends it), so warmthMult() is one load. */
    std::vector<double> warmth_;
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
    /** Wraps past 2^64 across all waitingBytes: while non-zero, some
     *  CPU's true sum exceeds what its waitingBytes holds. */
    std::uint64_t waitingWraps_ = 0;
};

} // namespace litmus::sim

#endif // LITMUS_SIM_OS_SCHEDULER_H
