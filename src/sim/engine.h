/**
 * @file
 * Quantum-stepped simulation engine with a steady-state fast-forward
 * core.
 *
 * Every task is a sim::Task walking its phase list (a function's
 * startup and body, or one endless generator phase). Each quantum
 * (default 50 us) the engine asks the scheduler which task runs on
 * every hardware thread, solves the shared-domain contention fixed
 * point once, then advances each running task — splitting the quantum
 * at phase boundaries so short startup sub-phases stay sharp.
 * PMU counters, probe windows, completion callbacks, and machine-wide
 * uncore counters are all maintained here.
 *
 * Every experiment that measures one function — a solo baseline, a
 * calibration cell's subject, a priced invocation among co-runners —
 * runs it through runToCompletion(): the engine steps until that task
 * is reaped, lets every completion listener see it (an Invoker
 * relaunches its own co-runners there), then hands the finished task
 * back so the caller reads its counters and probe from it.
 *
 * Long steady phases and idle stretches dominate real traces, so the
 * engine does not recompute what cannot have changed: a full step
 * captures a *replay plan* (the solved per-thread quantum deltas), and
 * while the scheduler topology, every running task's phase (the
 * address Task::demand() returns) and the phase headroom are
 * unchanged, subsequent quanta replay the cached deltas — same
 * additions, same order, same per-quantum observer callbacks — so
 * every statistic, counter, and billing input stays bit-identical to
 * exact quantum stepping while skipping the scheduler scans and the
 * iterative contention solve. Re-solves that do happen
 * are served from a ContentionMemo keyed on the co-running phase
 * signature. setFastForward(false) restores the original path: the
 * differential oracle (ClusterConfig::exactQuantum) and the engine
 * benches use it for A/B validation.
 *
 * A replayed quantum adds fixed steps, so every driver — run(),
 * runQuanta(), runToTick() and runToCompletion() — goes further and
 * applies k such quanta as one batch that lands on the bits of the k
 * sequential quanta: each task's counters and retired count are its
 * own accumulators and take k adds of their step; the machine-wide L3
 * counters, which sum every thread's misses in plan order each
 * quantum, take those k x threads additions in that order (with one
 * thread, k adds of one step, which addRepeated() lands in at most 16
 * plain additions plus one pass per binade crossed); a
 * multi-socket machine samples its per-socket utilizations quantum by
 * quantum in socket order; and the scheduler skips k ticks that
 * provably rotate no slice (OsScheduler::quietTicks). A batch needs
 * the plan valid and current, no per-quantum observer, every task
 * vouching for k phase-steady quanta (Task::steadyRetirements, which
 * applies the phase-end slack of Task::retire) and every open probe
 * window staying open through them; any thread count, socket count
 * and crowded scheduler qualify. The oracle (fast-forward off) never
 * batches.
 *
 * The tick a batch is sure to reach, steadyThrough(), tells a caller
 * how long it may leave the engine alone: no phase ends, no probe
 * window closes, no task completes and no slice rotates before it.
 * The scheduler's bound is read live; the tasks' side is walked once
 * per replay plan, as far as that bound. The fleet's barriers use it
 * to advance only the engines with a change due, and land the others
 * when they must touch them.
 */

#ifndef LITMUS_SIM_ENGINE_H
#define LITMUS_SIM_ENGINE_H

#include <cstdint>
#include <functional>
#include <memory>
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
    CounterStat replayBatches{"replay_batches",
                              "batches of steady quanta replayed at once"};
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

    /** Advance exactly @p n quanta, steady runs of them in batches
     *  (see the file comment). */
    void runQuanta(std::uint64_t n);

    /**
     * Quanta covering @p duration, computed on integer nanosecond
     * ticks end-to-end so exact quantum multiples never gain or lose a
     * quantum to floating-point drift, no matter how the duration was
     * produced (k * epoch, accumulated sums, ...).
     */
    std::uint64_t quantaForDuration(Seconds duration) const;

    /**
     * Add @p task, run quanta (steady runs in batches) until it
     * finishes, and hand it back. When it is reaped every completion
     * listener runs first, in registration order, as for any task;
     * then the engine returns it instead of destroying it, so the
     * caller reads counters(), probe(), id(), launchTime() and
     * completionTime() from it. fatal() if it is still live after @p cap simulated
     * seconds, because every experiment must terminate; a batch never
     * carries the clock past that point, so it fires at the same tick
     * with fast-forward on or off.
     */
    std::unique_ptr<Task> runToCompletion(std::unique_ptr<Task> task,
                                          Seconds cap = 600.0);

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
     * The last tick runToTick() is sure to reach by batched replay
     * alone: through it every running thread stays in its phase, every
     * open probe window stays open and no slice rotates, so no phase
     * ends, no task completes and no full step runs. tickCount() when
     * the engine cannot batch (see the file comment), and the largest
     * tick while every thread is in an endless phase and no CPU is
     * crowded. Sound, not tight: a later quantum may still be steady.
     * O(1) after its first call on a replay plan, which caches the
     * tasks' side of the answer; anything that changes the plan (add(),
     * a completion, killAllTasks(), setSpeedFactor(), a rotation)
     * drops it, and so does a probe window's close.
     */
    std::uint64_t steadyThrough();

    /**
     * Advance to lifetime tick @p tick, landing on @p clock — the
     * *caller's* canonical clock for that tick. Steps while tasks are
     * live or per-quantum observers are registered (those must fire
     * every quantum); runs of steady quanta are applied as batches
     * (see the file comment; counted in stats().replayBatches),
     * bit-identical to stepping them, however the caller splits its
     * calls: a caller may
     * leave an engine behind while its tick is at most steadyThrough(),
     * because nothing it could observe changes before then, and land it
     * later in one call. Once the engine drains, the rest of the way is
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

    /** Number of live tasks. */
    std::size_t taskCount() const { return tasks_.size(); }

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
     * Output is bit-identical either way; disabling exists for the
     * differential oracle and for baseline timing.
     */
    void setFastForward(bool enabled);
    bool fastForward() const { return fastForward_; }
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
        /** planSteadyEnd()'s answer once asked (0: not yet): the
         *  absolute tick every planned thread replays through without
         *  a phase end. */
        std::uint64_t steadyEnd = 0;
        /** steadyEnd is where the walk stopped looking, not a bound
         *  any thread set: the plan may be steady beyond it. */
        bool steadyCapped = false;
    };

    /** Execute one quantum (replay when possible, full otherwise). */
    void step();

    /**
     * The exact quantum step; rebuilds the replay plan as it goes. It
     * gathers the running threads from the scheduler's occupied CPUs
     * only (OsScheduler::forEachOccupied), so outside the solve it costs
     * O(occupied CPUs), not O(hardware threads).
     */
    void fullStep();

    /** Replay one steady quantum off the plan. False: plan not valid. */
    bool tryReplayQuantum();

    /**
     * Fill plan_.steadyEnd: the tick through which every planned
     * thread stays in its phase with more than a step of headroom and
     * keeps any open probe window open, looking at most @p limit ticks
     * ahead (the current tick when a thread has left its phase). Call
     * only on a valid, current plan.
     */
    void planSteadyEnd(std::uint64_t limit);

    /**
     * Replay up to @p limit steady quanta, never past steadyThrough(),
     * as one batch. Returns the quanta applied (0: none).
     */
    std::uint64_t replaySteadyBatch(std::uint64_t limit);

    /**
     * Take one batch of up to @p limit quanta, or one step when none
     * batches; returns the quanta taken (at least 1).
     */
    std::uint64_t advance(std::uint64_t limit);

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
    /** fullStep()'s direct solve with fast-forward off (reused). */
    ContentionResult freshSolve_;
    FrequencyGovernor governor_;
    Seconds quantum_;
    OsScheduler scheduler_; // ticks quantum_, so declared after it
    /** Quantum in integer nanosecond ticks (run() accounting). */
    std::int64_t quantumNs_;
    Seconds now_ = 0;
    /** Lifetime quanta: stepped + skipped (see tickCount()). */
    std::uint64_t tickCount_ = 0;
    MachineCounters machine_;
    std::vector<std::unique_ptr<Task>> tasks_;
    /** runToCompletion()'s task: its id while it runs (0: none), then
     *  the task itself, kept by reapFinished() after the listeners. */
    std::uint64_t awaitedId_ = 0;
    std::unique_ptr<Task> awaited_;
    std::vector<CompletionCallback> completionCbs_;
    std::vector<QuantumObserver> quantumCbs_;
    std::uint64_t nextTaskId_ = 1;
    EngineStats stats_;
    /** Effective-frequency multiplier (slowdown windows; 1 = nominal). */
    double speedFactor_ = 1.0;
    bool fastForward_ = true;
    FastForwardPlan plan_;

    /** @name fullStep() scratch space (reused, hot path) @{ */
    std::vector<unsigned> scratchCpus_;
    std::vector<Task *> scratchTasks_;
    std::vector<const ResourceDemand *> scratchDemands_;
    std::vector<SolverInput> scratchInputs_;
    /** @} */
};

} // namespace litmus::sim

#endif // LITMUS_SIM_ENGINE_H
