#include "sim/engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/repeated_add.h"

namespace litmus::sim
{

namespace
{

/**
 * Hottest-domain ordering for the observer view: strictly hotter DRAM
 * wins, ties break on L3-path utilization. Shared between the exact
 * per-quantum view and the replay plan's predicted view — they must
 * never diverge.
 */
bool
hotterDomain(const SharedState &candidate, const SharedState &current)
{
    return candidate.memUtilization > current.memUtilization ||
           (candidate.memUtilization == current.memUtilization &&
            candidate.l3Utilization > current.l3Utilization);
}

} // namespace

bool Engine::defaultFastForward_ = true;

void
Engine::setDefaultFastForward(bool enabled)
{
    defaultFastForward_ = enabled;
}

bool
Engine::defaultFastForward()
{
    return defaultFastForward_;
}

void
EngineStats::registerWith(StatsRegistry &registry,
                          const std::string &group)
{
    registry.add(group, quanta);
    registry.add(group, completions);
    registry.add(group, instructions);
    registry.add(group, l3Utilization);
    registry.add(group, memUtilization);
    registry.add(group, runningThreads);
    registry.add(group, frequencyGhz);
    registry.add(group, ffQuanta);
    registry.add(group, solves);
    registry.add(group, solveMemoHits);
    registry.add(group, skippedQuanta);
}

Engine::Engine(const MachineConfig &cfg, FrequencyPolicy policy,
               Seconds quantum)
    : cfg_(cfg),
      solver_(cfg_),
      governor_(cfg_, policy),
      scheduler_(cfg_),
      quantum_(quantum > 0 ? quantum : cfg_.quantum),
      quantumNs_(std::llround(quantum_ * 1e9)),
      lastFrequency_(cfg_.baseFrequency),
      fastForward_(defaultFastForward_)
{
    cfg_.validate();
    if (quantum_ <= 0)
        fatal("Engine: quantum must be positive");
    if (quantumNs_ <= 0)
        fatal("Engine: quantum must be at least 1 ns (tick accounting)");
    // The tick grid silently miscounts if the quantum is not a whole
    // number of nanoseconds (2.5 ns would round to 3 and shortchange
    // every run); refuse rather than drift.
    if (std::abs(quantum_ * 1e9 - static_cast<double>(quantumNs_)) >
        1e-3)
        fatal("Engine: quantum ", quantum_,
              " s is not a whole number of nanoseconds");
}

void
Engine::setFastForward(bool enabled)
{
    fastForward_ = enabled;
    plan_.valid = false;
}

Task &
Engine::add(std::unique_ptr<Task> task)
{
    if (!task)
        fatal("Engine::add: null task");
    task->setId(nextTaskId_++);
    task->setLaunchTime(now_);
    if (task->probeWindow() > 0) {
        ProbeCapture &probe = task->probe();
        probe.started = true;
        probe.taskAtStart = task->counters();
        probe.machineAtStart = machine_;
    }
    Task &ref = *task;
    scheduler_.add(task.get()); // bumps the scheduler version
    liveIds_.insert(ref.id());
    tasks_.push_back(std::move(task));
    return ref;
}

bool
Engine::alive(const Task &task) const
{
    return aliveId(task.id());
}

bool
Engine::aliveId(std::uint64_t id) const
{
    return liveIds_.contains(id);
}

std::vector<Task *>
Engine::liveTasks()
{
    std::vector<Task *> out;
    out.reserve(tasks_.size());
    for (const auto &t : tasks_)
        out.push_back(t.get());
    return out;
}

std::vector<std::unique_ptr<Task>>
Engine::killAllTasks()
{
    for (const auto &task : tasks_) {
        scheduler_.remove(task.get()); // bumps the scheduler version
        liveIds_.erase(task->id());
    }
    // The version bump already fences stale replays, but the plan
    // holds raw Task pointers into the corpses we are about to hand
    // out — drop it outright.
    plan_.valid = false;
    std::vector<std::unique_ptr<Task>> corpses = std::move(tasks_);
    tasks_.clear();
    return corpses;
}

void
Engine::setSpeedFactor(double factor)
{
    if (!(factor > 0))
        fatal("Engine::setSpeedFactor: factor must be positive, got ",
              factor);
    if (factor == speedFactor_)
        return;
    speedFactor_ = factor;
    // The plan's deltas were solved at the old frequency.
    plan_.valid = false;
}

std::uint64_t
Engine::quantaForDuration(Seconds duration) const
{
    if (!std::isfinite(duration))
        fatal("Engine::run: duration ", duration, " is not finite");
    if (duration < 0)
        fatal("Engine::run: negative duration");
    // Integer nanosecond ticks end-to-end: float division against an
    // absolute quantum drifts after millions of quanta and can drop or
    // add a whole quantum for durations that are exact (or near-exact)
    // quantum multiples. llround() snaps the duration to the tick grid
    // and the ceiling is then exact integer arithmetic.
    if (duration * 1e9 > 9.0e18)
        fatal("Engine::run: duration ", duration,
              " s overflows tick accounting");
    const std::int64_t durationNs = std::llround(duration * 1e9);
    return static_cast<std::uint64_t>((durationNs + quantumNs_ - 1) /
                                      quantumNs_);
}

void
Engine::run(Seconds duration)
{
    runQuanta(quantaForDuration(duration));
}

void
Engine::runQuanta(std::uint64_t n)
{
    for (std::uint64_t i = 0; i < n; ++i)
        step();
}

void
Engine::runUntilComplete(const Task &task, Seconds cap)
{
    runUntilCompleteId(task.id(), cap);
}

void
Engine::runUntilCompleteId(std::uint64_t id, Seconds cap)
{
    const Seconds end = now_ + cap;
    while (aliveId(id)) {
        if (now_ >= end)
            fatal("Engine::runUntilCompleteId: task ", id,
                  " did not finish within ", cap, " simulated seconds");
        step();
    }
}

void
Engine::runUntilIdle(Seconds cap)
{
    const Seconds end = now_ + cap;
    while (!tasks_.empty()) {
        if (now_ >= end)
            fatal("Engine::runUntilIdle: tasks still live after ", cap,
                  " simulated seconds");
        step();
    }
}

void
Engine::step()
{
    // Counted before execution so completion callbacks fired inside
    // this quantum read the 1-based tick the completion belongs to.
    ++tickCount_;
    if (tryReplayQuantum())
        return;
    fullStep();
}

void
Engine::runToTick(std::uint64_t tick, Seconds clock)
{
    if (tick < tickCount_)
        fatal("Engine::runToTick: tick ", tick, " is behind tick ",
              tickCount_);
    // A completion callback may add work (invoker churn), so liveness
    // is re-read every quantum.
    while (tickCount_ < tick && (!tasks_.empty() || !quantumCbs_.empty()))
        step();
    // The remaining n quanta are wholly idle: jump to the caller's
    // clock. That canonical clock carries the bits of the same fadd
    // sequence this engine would have performed, so it must equal the
    // closed form of those n fadds exactly — also when n == 0, where
    // this checks the caller's clock against the engine's own
    // stepping. Any difference means the caller skipped to the wrong
    // tick or accumulated its clock differently.
    const std::uint64_t n = tick - tickCount_;
    const Seconds expected = addRepeated(now_, quantum_, n);
    if (clock != expected)
        fatal("Engine::runToTick: clock ", clock, " is not ", n,
              " quanta ahead of now ", now_, " (off by ",
              clock - expected, " s)");
    if (n == 0)
        return;
    now_ = clock;
    machine_.time = now_;
    tickCount_ += n;
    stats_.skippedQuanta.add(n);
}

const ContentionResult &
Engine::memoSolve(const std::vector<SolverInput> &inputs, Hertz freq,
                  double waiting_working_set)
{
    const std::uint64_t hitsBefore = solveMemo_.hits();
    const ContentionResult &solved =
        solveMemo_.solve(solver_, inputs, freq, waiting_working_set);
    stats_.solves.add();
    if (solveMemo_.hits() != hitsBefore)
        stats_.solveMemoHits.add();
    return solved;
}

bool
Engine::tryReplayQuantum()
{
    if (!fastForward_ || !plan_.valid)
        return false;
    // Topology check first: it also guards the Task pointers below
    // (reaping a task removes it from the scheduler, bumping the
    // version, so a stale plan never dereferences a dead task).
    if (plan_.schedVersion != scheduler_.version()) {
        plan_.valid = false;
        return false;
    }
    for (const PlannedThread &t : plan_.threads) {
        // The phase must be the same one the plan was solved for and
        // must have strictly more than one quantum of work left, so
        // the replayed quantum cannot straddle a phase boundary (the
        // exact path would re-split it mid-quantum).
        if (&t.task->demand() != t.demand ||
            !(t.task->remainingInPhase() > t.stepInstr))
            return false;
    }

    // Replay: the identical additions, in the identical order, as one
    // exact quantum — nothing below may diverge from fullStep().
    bool sawFinish = false;
    for (const PlannedSocket &s : plan_.sockets) {
        for (std::size_t i = s.threadBegin; i < s.threadEnd; ++i) {
            const PlannedThread &t = plan_.threads[i];
            TaskCounters &tc = t.task->counters();
            tc.instructions += t.stepInstr;
            tc.cycles += t.usedCycles;
            tc.stallSharedCycles += t.stallCycles;
            tc.l2Misses += t.l2Misses;
            tc.l3Misses += t.l3Misses;
            machine_.l3Accesses += t.l2Misses;
            machine_.l3Misses += t.l3Misses;
            t.task->retire(t.stepInstr);
            updateProbe(*t.task);
            // The phase headroom check above leaves work in the phase,
            // but ProgramTask advances within a small retirement
            // tolerance of the boundary — the task may have just
            // finished exactly as it would under exact stepping.
            if (t.task->finished())
                sawFinish = true;
        }
        stats_.l3Utilization.sample(s.l3Utilization);
        stats_.memUtilization.sample(s.memUtilization);
    }

    scheduler_.tick(quantum_); // may rotate; the version bump then
                               // sends the next quantum down fullStep
    now_ += quantum_;
    machine_.time = now_;

    stats_.quanta.add();
    stats_.ffQuanta.add();
    stats_.runningThreads.sample(plan_.runningSample);
    stats_.frequencyGhz.sample(plan_.freqGhzSample);

    if (!quantumCbs_.empty()) {
        for (const auto &cb : quantumCbs_)
            cb(now_, plan_.observedState);
    }

    if (sawFinish)
        plan_.valid = false;
    if (sawFinish || !quantumCbs_.empty())
        reapFinished();
    return true;
}

void
Engine::fullStep()
{
    const Seconds dt = quantum_;
    const unsigned cpus = scheduler_.cpuCount();

    // speedFactor_ models transient machine-wide degradation
    // (thermal / co-tenant interference): fewer cycles per quantum,
    // so the same work takes longer and bills the same. It feeds the
    // contention solve (and the memo key) like any frequency change.
    const Hertz freq =
        governor_.frequency(scheduler_.activeCores()) * speedFactor_;
    lastFrequency_ = freq;

    // Gather running threads and solve each socket's shared domain
    // independently (sockets == 1 for the default presets).
    unsigned totalRunning = 0;
    SharedState observedState; // hottest-domain view for observers
    observedState.l3LatencyNs = cfg_.l3HitLatencyNs;
    observedState.memLatencyNs = cfg_.memLatencyNs;
    // What the *next* quantum's observers will see if the plan holds
    // (differs from observedState only across a transition lookahead).
    SharedState planObserved = observedState;

    // Plan capture: the per-quantum deltas a *clean* steady quantum
    // would apply (this quantum itself may differ — pending switch
    // cycles, a mid-quantum phase split — without spoiling the plan;
    // validity is re-checked against the tasks every replay).
    plan_.valid = false;
    plan_.threads.clear();
    plan_.sockets.clear();
    bool steady = fastForward_;
    bool anyFinished = false;
    const Cycles cyclesFull = freq * dt;

    const unsigned perSocket = cfg_.hwThreadsPerSocket();
    for (unsigned socket = 0; socket < cfg_.sockets; ++socket) {
        const unsigned cpuBegin = socket * perSocket;
        const unsigned cpuEnd = std::min(cpuBegin + perSocket, cpus);

        std::vector<unsigned> &runningCpus = scratchCpus_;
        std::vector<Task *> &runningTasks = scratchTasks_;
        std::vector<const ResourceDemand *> &runningDemands =
            scratchDemands_;
        std::vector<SolverInput> &inputs = scratchInputs_;
        runningCpus.clear();
        runningTasks.clear();
        runningDemands.clear();
        inputs.clear();

        for (unsigned cpu = cpuBegin; cpu < cpuEnd; ++cpu) {
            Task *task = scheduler_.runningOn(cpu);
            if (!task || task->finished())
                continue;
            SolverInput input;
            input.demand = task->demand();
            input.env.warmthMult = scheduler_.warmthMult(cpu);
            input.env.smtMult = scheduler_.siblingBusy(cpu)
                                    ? cfg_.smtCpiMultiplier
                                    : 1.0;
            runningCpus.push_back(cpu);
            runningTasks.push_back(task);
            runningDemands.push_back(&task->demand());
            inputs.push_back(input);
        }

        const double waitingWs =
            scheduler_.waitingWorkingSet(cpuBegin, cpuEnd);
        // The memo returns a result bit-identical to a fresh solve;
        // exact-quantum mode bypasses it so --exact-quantum times the
        // true baseline.
        ContentionResult freshSolve;
        if (!fastForward_) {
            freshSolve = solver_.solve(inputs, freq, waitingWs);
            stats_.solves.add();
        }
        const ContentionResult &solved =
            fastForward_ ? memoSolve(inputs, freq, waitingWs)
                         : freshSolve;

        for (std::size_t i = 0; i < runningTasks.size(); ++i) {
            advanceTask(*runningTasks[i], runningCpus[i],
                        solved.threads[i], solved.shared, freq, dt);
            if (runningTasks[i]->finished())
                anyFinished = true;
        }

        // The memo reference dies at the next memo call (the
        // transition lookahead below may be one); copy what outlives
        // this point.
        const SharedState solvedShared = solved.shared;

        if (steady) {
            // A phase change this quantum normally costs two full
            // steps: this one (the split quantum) and the next (the
            // re-solve that rebuilds the plan). The lookahead collapses
            // that to one: re-solve the socket against the *new* phase
            // signature now — everything else the next quantum's solve
            // would read (environments, frequency, waiting working
            // set) is unchanged while the scheduler version holds, and
            // the plan is version-guarded, so the lookahead result is
            // exactly the solve the next exact quantum would perform.
            bool phaseChanged = false;
            for (std::size_t i = 0; i < runningTasks.size(); ++i) {
                if (runningTasks[i]->finished()) {
                    steady = false;
                    break;
                }
                if (&runningTasks[i]->demand() != runningDemands[i])
                    phaseChanged = true;
            }
            const ContentionResult *planSolve = &solved;
            if (steady && phaseChanged) {
                for (std::size_t i = 0; i < runningTasks.size(); ++i) {
                    runningDemands[i] = &runningTasks[i]->demand();
                    inputs[i].demand = *runningDemands[i];
                }
                planSolve = &memoSolve(inputs, freq, waitingWs);
            }

            if (steady) {
                PlannedSocket ps;
                ps.threadBegin = plan_.threads.size();
                for (std::size_t i = 0; i < runningTasks.size(); ++i) {
                    const ThreadPerf &perf = planSolve->threads[i];
                    const double cpi = perf.cpi();
                    PlannedThread pt;
                    pt.task = runningTasks[i];
                    pt.demand = runningDemands[i];
                    // Exactly the operations advanceTask applies in a
                    // clean single-split quantum, precomputed once.
                    pt.stepInstr = cyclesFull / cpi;
                    pt.usedCycles = pt.stepInstr * cpi;
                    pt.stallCycles = pt.stepInstr * perf.stallPerInstr;
                    pt.l2Misses = pt.stepInstr *
                                  runningDemands[i]->l2Mpki / 1000.0;
                    pt.l3Misses = pt.l2Misses * perf.l3MissFraction;
                    // Guard the single-split assumption: the residue
                    // the exact path would see after one split must
                    // fall below its loop epsilon, or replay is not
                    // representative.
                    if (!(pt.stepInstr > 0) ||
                        cyclesFull - pt.usedCycles > 1e-9) {
                        steady = false;
                        break;
                    }
                    plan_.threads.push_back(pt);
                }
                ps.threadEnd = plan_.threads.size();
                ps.l3Utilization = planSolve->shared.l3Utilization;
                ps.memUtilization = planSolve->shared.memUtilization;
                plan_.sockets.push_back(ps);
                // The replayed quanta observe what the next exact
                // quantum's hottest-domain scan would see: the
                // lookahead state where a phase changed, this
                // quantum's (identical, deterministic) solve where
                // none did.
                if (socket == 0 ||
                    hotterDomain(planSolve->shared, planObserved))
                    planObserved = planSolve->shared;
            }
        }

        totalRunning += static_cast<unsigned>(runningTasks.size());
        // Hottest-domain view: strictly hotter sockets win (an idle
        // later socket must not overwrite a busy earlier one at equal
        // DRAM utilization), and socket 0 seeds the view so
        // single-socket behaviour is unchanged.
        if (socket == 0 || hotterDomain(solvedShared, observedState))
            observedState = solvedShared;
        stats_.l3Utilization.sample(solvedShared.l3Utilization);
        stats_.memUtilization.sample(solvedShared.memUtilization);
    }

    if (steady) {
        plan_.runningSample = static_cast<double>(totalRunning);
        plan_.freqGhzSample = freq * 1e-9;
        plan_.observedState = planObserved;
        // Captured before tick(): a rotation in this quantum bumps the
        // version and correctly invalidates the plan.
        plan_.schedVersion = scheduler_.version();
        plan_.valid = true;
    }

    scheduler_.tick(dt);
    now_ += dt;
    machine_.time = now_;

    stats_.quanta.add();
    stats_.runningThreads.sample(static_cast<double>(totalRunning));
    stats_.frequencyGhz.sample(freq * 1e-9);

    if (!quantumCbs_.empty()) {
        for (const auto &cb : quantumCbs_)
            cb(now_, observedState);
    }

    // Only tasks that ran can finish — except through a quantum
    // observer reaching into the engine, so observers keep the
    // unconditional reap.
    if (anyFinished || !quantumCbs_.empty())
        reapFinished();
}

void
Engine::advanceTask(Task &task, unsigned cpu, const ThreadPerf &perf,
                    const SharedState &shared, Hertz freq, Seconds dt)
{
    TaskCounters &tc = task.counters();
    Cycles cyclesLeft = freq * dt;

    // Context-switch cost burns cycles without retiring instructions;
    // it lands in T_private (cycles - stalls grows).
    const Cycles switchCost = scheduler_.consumePendingSwitchCycles(cpu);
    if (switchCost > 0) {
        const Cycles burned = std::min(switchCost, cyclesLeft);
        tc.cycles += burned;
        cyclesLeft -= burned;
    }

    ThreadPerf current = perf;
    const ResourceDemand *currentDemand = &task.demand();

    while (cyclesLeft > 1e-9 && !task.finished()) {
        const ResourceDemand &d = task.demand();
        if (&d != currentDemand) {
            // Phase changed mid-quantum: recompute against the same
            // shared state (the fixed point lags one quantum, which is
            // fine at 50 us).
            current = solver_.threadPerf(d, ThreadEnvironment{
                                                scheduler_.warmthMult(cpu),
                                                scheduler_.siblingBusy(cpu)
                                                    ? cfg_.smtCpiMultiplier
                                                    : 1.0},
                                         shared, freq);
            currentDemand = &d;
        }

        const double cpi = current.cpi();
        const Instructions possible = cyclesLeft / cpi;
        const Instructions step =
            std::min(possible, task.remainingInPhase());
        if (step <= 0) {
            // Defensive: an empty phase must still terminate the loop.
            task.retire(0);
            break;
        }

        const Cycles used = step * cpi;
        const double l2Miss = step * d.l2Mpki / 1000.0;
        const double l3Miss = l2Miss * current.l3MissFraction;

        tc.instructions += step;
        tc.cycles += used;
        tc.stallSharedCycles += step * current.stallPerInstr;
        tc.l2Misses += l2Miss;
        tc.l3Misses += l3Miss;

        machine_.l3Accesses += l2Miss;
        machine_.l3Misses += l3Miss;

        cyclesLeft -= used;
        task.retire(step);
        updateProbe(task);
    }
}

void
Engine::updateProbe(Task &task)
{
    if (task.probeWindow() <= 0)
        return;
    ProbeCapture &probe = task.probe();
    if (probe.complete || !probe.started)
        return;
    const TaskCounters delta = task.counters().since(probe.taskAtStart);
    if (delta.instructions >= task.probeWindow()) {
        probe.taskAtEnd = task.counters();
        probe.machineAtEnd = machine_;
        // The machine counter advances continuously but machine_.time
        // is only updated at quantum end; stamp a consistent time.
        probe.machineAtEnd.time = now_;
        probe.complete = true;
    }
}

void
Engine::reapFinished()
{
    for (std::size_t i = 0; i < tasks_.size();) {
        Task *task = tasks_[i].get();
        if (!task->finished()) {
            ++i;
            continue;
        }
        task->setCompletionTime(now_);
        stats_.completions.add();
        stats_.instructions.add(task->counters().instructions);
        scheduler_.remove(task); // bumps the scheduler version
        liveIds_.erase(task->id());
        // Move ownership out before the callback so the callback may
        // add new tasks (invoker churn) without invalidating iterators.
        std::unique_ptr<Task> owned = std::move(tasks_[i]);
        tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(i));
        for (const auto &cb : completionCbs_)
            cb(*owned);
    }
}

} // namespace litmus::sim
