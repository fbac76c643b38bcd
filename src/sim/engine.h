/**
 * @file
 * Quantum-stepped simulation engine with a steady-state fast-forward
 * core.
 *
 * Each quantum (default 50 us) the engine asks the scheduler which task
 * runs on every hardware thread, solves the shared-domain contention
 * fixed point once, then advances each running task — splitting the
 * quantum at phase boundaries so short startup sub-phases stay sharp.
 * PMU counters, probe windows, completion callbacks, and machine-wide
 * uncore counters are all maintained here.
 *
 * Long steady phases and idle stretches dominate real traces, so the
 * engine does not recompute what cannot have changed: a full step
 * captures a *replay plan* (the solved per-thread quantum deltas), and
 * while the scheduler topology, every running task's phase, and the
 * phase headroom are unchanged, subsequent quanta replay the cached
 * deltas — same additions, same order, same per-quantum observer
 * callbacks — so every statistic, counter, and billing input stays
 * bit-identical to exact quantum stepping while skipping the scheduler
 * scans and the iterative contention solve. Re-solves that do happen
 * are served from a ContentionMemo keyed on the co-running phase
 * signature. setFastForward(false) (the apps' --exact-quantum flag)
 * restores the original path for A/B validation.
 */

#ifndef LITMUS_SIM_ENGINE_H
#define LITMUS_SIM_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/stats_registry.h"
#include "sim/contention.h"
#include "sim/frequency_governor.h"
#include "sim/machine_config.h"
#include "sim/os_scheduler.h"
#include "sim/pmu.h"
#include "sim/task.h"

namespace litmus::sim
{

/** Per-engine statistics, registrable with a StatsRegistry. */
struct EngineStats
{
    CounterStat quanta{"quanta", "simulated quanta executed"};
    CounterStat completions{"completions", "tasks run to completion"};
    CounterStat instructions{"instructions",
                             "total instructions retired"};
    AverageStat l3Utilization{"l3_utilization",
                              "per-quantum L3 access-path utilization"};
    AverageStat memUtilization{"mem_utilization",
                               "per-quantum DRAM bandwidth utilization"};
    /** Averaged over stepped quanta only: idle quanta elided by
     *  runToTick() take no sample. */
    AverageStat runningThreads{"running_threads",
                               "hardware threads busy per quantum"};
    AverageStat frequencyGhz{"frequency_ghz",
                             "per-quantum core frequency"};
    /** @name Fast-forward diagnostics (never affect simulation output)
     *  @{ */
    CounterStat ffQuanta{"ff_quanta",
                         "quanta advanced by steady-state replay"};
    CounterStat solves{"solves",
                       "contention solve requests (incl. memo hits)"};
    CounterStat solveMemoHits{"solve_memo_hits",
                              "contention solves served from the memo"};
    CounterStat skippedQuanta{"skipped_quanta",
                              "idle quanta elided by runToTick"};
    /** @} */

    /** Register every member under the given group. */
    void registerWith(StatsRegistry &registry, const std::string &group);
};

/**
 * The simulation engine; owns all live tasks.
 */
class Engine
{
  public:
    /** Called when a task finishes, before it is destroyed. */
    using CompletionCallback = std::function<void(Task &)>;

    /** Called once per quantum with the solved shared state. */
    using QuantumObserver =
        std::function<void(Seconds now, const SharedState &state)>;

    /**
     * @param quantum stepping quantum; 0 (the default) takes the
     *     quantum from @p cfg so presets control it fleet-wide.
     */
    Engine(const MachineConfig &cfg,
           FrequencyPolicy policy = FrequencyPolicy::Fixed,
           Seconds quantum = 0);

    /** Add a task; the engine takes ownership. Returns a handle. */
    Task &add(std::unique_ptr<Task> task);

    /** Register a completion listener (multiple consumers chain). */
    void onCompletion(CompletionCallback cb)
    {
        completionCbs_.push_back(std::move(cb));
    }

    /** Register a per-quantum observer (POPPA sampler, timelines). */
    void onQuantum(QuantumObserver cb)
    {
        quantumCbs_.push_back(std::move(cb));
    }

    /** Advance simulated time by the given duration. */
    void run(Seconds duration);

    /** Advance exactly @p n quanta. */
    void runQuanta(std::uint64_t n);

    /**
     * Quanta covering @p duration, computed on integer nanosecond
     * ticks end-to-end so exact quantum multiples never gain or lose a
     * quantum to floating-point drift, no matter how the duration was
     * produced (k * epoch, accumulated sums, ...).
     */
    std::uint64_t quantaForDuration(Seconds duration) const;

    /**
     * Advance until the given task completes (or the time cap is hit;
     * then fatal(), because every experiment must terminate).
     */
    void runUntilComplete(const Task &task, Seconds cap = 600.0);

    /** Advance until the task with the given id completes. */
    void runUntilCompleteId(std::uint64_t id, Seconds cap = 600.0);

    /** Advance until no live tasks remain (respects the cap). */
    void runUntilIdle(Seconds cap = 600.0);

    /** Current simulated time. */
    Seconds now() const { return now_; }

    /** Quantum length this engine steps by. */
    Seconds quantum() const { return quantum_; }

    /**
     * Quanta this engine has lived through: executed steps plus idle
     * quanta elided by runToTick(). During a quantum's step() the
     * count already includes that quantum (1-based), so completion
     * callbacks read the tick the completion belongs to.
     */
    std::uint64_t tickCount() const { return tickCount_; }

    /**
     * Advance to lifetime tick @p tick, landing on @p clock — the
     * *caller's* canonical clock for that tick. Steps while tasks are
     * live or per-quantum observers are registered (those must fire
     * every quantum). Once the engine drains, the rest of the way is
     * elided in O(1): with no live task a step touches nothing
     * task-visible except the clock, so the engine jumps straight to
     * @p clock, assigned (not accumulated) so it lands on bit-identical
     * time as an engine that stepped every quantum against the same
     * shared fadd sequence. Every task-visible result therefore equals
     * runQuanta(tick - tickCount()); only the diagnostics differ
     * (elided quanta count in stats().skippedQuanta, not quanta, and
     * take no per-quantum stat samples). fatal() if @p tick lies
     * behind tickCount(), or if @p clock differs in any bit from
     * addRepeated(now(), quantum(), n) for the n quanta left after
     * stepping — including n == 0, where @p clock must equal now():
     * a caller that lands a stepped engine thereby cross-checks its
     * own clock against the engine's per-quantum fadds.
     */
    void runToTick(std::uint64_t tick, Seconds clock);

    /** Machine-wide uncore counters. */
    const MachineCounters &machineCounters() const { return machine_; }

    /** Scheduler access (freezing for POPPA, queue inspection). */
    OsScheduler &scheduler() { return scheduler_; }
    const OsScheduler &scheduler() const { return scheduler_; }

    /** Configuration this engine simulates. */
    const MachineConfig &config() const { return cfg_; }

    /** Contention solver (shared with calibration tooling). */
    const ContentionSolver &solver() const { return solver_; }

    /** Frequency used in the most recent quantum. */
    Hertz currentFrequency() const { return lastFrequency_; }

    /** Number of live tasks. */
    std::size_t taskCount() const { return tasks_.size(); }

    /** True while the task is still owned by the engine. */
    bool alive(const Task &task) const;

    /** True while a task with the given id is owned by the engine. */
    bool aliveId(std::uint64_t id) const;

    /** Non-owning view of every live task (POPPA victim selection). */
    std::vector<Task *> liveTasks();

    /**
     * Kill every live task without invoking completion callbacks — a
     * machine crash with state loss, not an orderly finish. Ownership
     * of the corpses transfers to the caller, which can read the
     * partial counters (the work the crash destroyed) for failure
     * billing. The scheduler is emptied and the replay plan dropped;
     * the engine keeps running (its clock is monotone through the
     * crash) and accepts new tasks after the restart.
     */
    std::vector<std::unique_ptr<Task>> killAllTasks();

    /** @name Machine speed degradation @{ */
    /**
     * Scale the effective core frequency (transient thermal or
     * co-tenant slowdown windows): 0.5 runs every subsequent quantum
     * at half clock. Takes effect at the next quantum; call only
     * between quanta (the cluster applies it at epoch barriers).
     */
    void setSpeedFactor(double factor);
    double speedFactor() const { return speedFactor_; }
    /** @} */

    /** Run statistics (utilizations, completions, ...). */
    EngineStats &stats() { return stats_; }
    const EngineStats &stats() const { return stats_; }

    /** @name Steady-state fast-forward control @{ */
    /**
     * Enable or disable the fast-forward core for this engine.
     * Output is bit-identical either way; disabling exists as an A/B
     * escape hatch (--exact-quantum) and for baseline timing.
     */
    void setFastForward(bool enabled);
    bool fastForward() const { return fastForward_; }

    /**
     * Process-wide default applied to newly constructed engines, so
     * command-line front ends can flip every engine an experiment
     * creates internally without threading a flag through each config.
     */
    static void setDefaultFastForward(bool enabled);
    static bool defaultFastForward();
    /** @} */

  private:
    /** One running thread's precomputed steady-quantum deltas. */
    struct PlannedThread
    {
        Task *task = nullptr;
        /** Phase identity: demand() must still return this object. */
        const ResourceDemand *demand = nullptr;
        Instructions stepInstr = 0;
        Cycles usedCycles = 0;
        Cycles stallCycles = 0;
        double l2Misses = 0;
        double l3Misses = 0;
    };

    /** Per-socket slice of the plan plus its stat samples. */
    struct PlannedSocket
    {
        std::size_t threadBegin = 0;
        std::size_t threadEnd = 0;
        double l3Utilization = 0;
        double memUtilization = 0;
    };

    /**
     * Everything needed to replay one steady quantum without touching
     * the scheduler or the solver. Built by fullStep(), valid while
     * the scheduler version is unchanged and every planned task stays
     * in its phase with more than one quantum of headroom.
     */
    struct FastForwardPlan
    {
        bool valid = false;
        std::uint64_t schedVersion = 0;
        double runningSample = 0;
        double freqGhzSample = 0;
        SharedState observedState;
        std::vector<PlannedThread> threads;
        std::vector<PlannedSocket> sockets;
    };

    /** Execute one quantum (replay when possible, full otherwise). */
    void step();

    /** The exact quantum step; rebuilds the replay plan as it goes. */
    void fullStep();

    /** Replay one steady quantum off the plan. False: plan not valid. */
    bool tryReplayQuantum();

    /** Memoized solve plus the solve/hit stat bookkeeping. */
    const ContentionResult &
    memoSolve(const std::vector<SolverInput> &inputs, Hertz freq,
              double waiting_working_set);

    /** Advance one running task through (up to) the quantum. */
    void advanceTask(Task &task, unsigned cpu, const ThreadPerf &perf,
                     const SharedState &shared, Hertz freq, Seconds dt);

    /** Close probe windows that the advance crossed. */
    void updateProbe(Task &task);

    /** Destroy finished tasks, invoking callbacks. */
    void reapFinished();

    const MachineConfig cfg_;
    ContentionSolver solver_;
    ContentionMemo solveMemo_;
    FrequencyGovernor governor_;
    OsScheduler scheduler_;
    Seconds quantum_;
    /** Quantum in integer nanosecond ticks (run() accounting). */
    std::int64_t quantumNs_;
    Seconds now_ = 0;
    /** Lifetime quanta: stepped + skipped (see tickCount()). */
    std::uint64_t tickCount_ = 0;
    Hertz lastFrequency_;
    MachineCounters machine_;
    std::vector<std::unique_ptr<Task>> tasks_;
    /** Ids of live tasks, so alive checks in run loops stay O(1). */
    // LITMUS-LINT-ALLOW(unordered-decl): O(1) liveness membership only; never iterated — task visit order comes from tasks_, not this set
    std::unordered_set<std::uint64_t> liveIds_;
    std::vector<CompletionCallback> completionCbs_;
    std::vector<QuantumObserver> quantumCbs_;
    std::uint64_t nextTaskId_ = 1;
    EngineStats stats_;
    /** Effective-frequency multiplier (slowdown windows; 1 = nominal). */
    double speedFactor_ = 1.0;
    bool fastForward_;
    FastForwardPlan plan_;

    /** @name fullStep() scratch space (reused, hot path) @{ */
    std::vector<unsigned> scratchCpus_;
    std::vector<Task *> scratchTasks_;
    std::vector<const ResourceDemand *> scratchDemands_;
    std::vector<SolverInput> scratchInputs_;
    /** @} */

    static bool defaultFastForward_;
};

} // namespace litmus::sim

#endif // LITMUS_SIM_ENGINE_H
