#include "sim/os_scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/repeated_add.h"

namespace litmus::sim
{

OsScheduler::OsScheduler(const MachineConfig &cfg, Seconds quantum)
    : cfg_(cfg), maskWords_((cfg.hwThreads() + 63) / 64)
{
    cpus_.resize(cfg.hwThreads());
    if (!(quantum > 0) || !std::isfinite(quantum) ||
        !(cfg.timeSlice > 0) || !std::isfinite(cfg.timeSlice))
        fatal("OsScheduler: quantum (", quantum, " s) and timeSlice (",
              cfg.timeSlice, " s) must be positive and finite");
    // The slice a CPU has used is a sum of quanta from zero, so it
    // first reaches the time slice after a fixed number of ticks.
    sliceTicks_ = coverRepeated(0, quantum, 1, cfg.timeSlice).chunks;
}

std::uint32_t
OsScheduler::pinMask(const Task *task)
{
    std::uint32_t slot;
    if (freeMasks_.empty()) {
        slot = static_cast<std::uint32_t>(masks_.size() / maskWords_);
        masks_.resize(masks_.size() + maskWords_, 0);
    } else {
        slot = freeMasks_.back();
        freeMasks_.pop_back();
        std::fill_n(masks_.begin() + slot * maskWords_, maskWords_, 0);
    }
    std::uint64_t *words = &masks_[slot * maskWords_];
    for (unsigned cpu : task->affinity()) {
        if (cpu >= cpus_.size())
            fatal("Task ", task->name(), " affinity cpu ", cpu,
                  " exceeds machine size ", cpus_.size());
        words[cpu / 64] |= std::uint64_t{1} << (cpu % 64);
    }
    return slot;
}

void
OsScheduler::startSlice(CpuState &cpu)
{
    cpu.sliceStart = ticks_;
    if (sliceTicks_ != 0)
        nextDue_ = std::min(nextDue_, ticks_ + sliceTicks_);
}

void
OsScheduler::add(Task *task)
{
    const std::vector<unsigned> &affinity = task->affinity();
    Queued entry{task, kAnyCpu};
    unsigned best = 0;
    if (affinity.empty()) {
        for (unsigned cpu = 1; cpu < cpus_.size(); ++cpu) {
            if (cpus_[cpu].queue.size() < cpus_[best].queue.size())
                best = cpu;
        }
    } else {
        entry.mask = pinMask(task); // rejects out-of-range CPUs
        best = affinity.front();
        for (unsigned cpu : affinity) {
            if (cpus_[cpu].queue.size() < cpus_[best].queue.size())
                best = cpu;
        }
    }
    CpuState &target = cpus_[best];
    target.queue.push_back(entry);
    if (target.queue.size() == 2) {
        ++crowdedCpus_;
        startSlice(target);
    }
    ++version_;
}

void
OsScheduler::remove(Task *task)
{
    for (auto &cpu : cpus_) {
        auto it = std::find_if(cpu.queue.begin(), cpu.queue.end(),
                               [task](const Queued &q) {
                                   return q.task == task;
                               });
        if (it != cpu.queue.end()) {
            const bool wasRunning = it == cpu.queue.begin();
            if (it->mask != kAnyCpu)
                freeMasks_.push_back(it->mask);
            cpu.queue.erase(it);
            if (cpu.queue.size() == 1)
                --crowdedCpus_;
            // The next task in line gets a fresh slice. A queue that
            // drops below two has no slice; one that refills starts a
            // fresh one in add(), never carrying a partial slice over.
            if (wasRunning && cpu.queue.size() >= 2)
                startSlice(cpu);
            frozen_.erase(task);
            ++version_;
            rebalance();
            return;
        }
    }
    panic("OsScheduler::remove: task ", task->name(), " not queued");
}

Task *
OsScheduler::runningOn(unsigned cpu) const
{
    if (cpu >= cpus_.size())
        panic("OsScheduler::runningOn: cpu ", cpu, " out of range");
    const std::deque<Queued> &queue = cpus_[cpu].queue;
    // Freezing is rare (POPPA windows only); skip the per-entry hash
    // probes on the hot path when nothing is frozen.
    if (frozen_.empty())
        return queue.empty() ? nullptr : queue.front().task;
    for (const Queued &entry : queue) {
        if (!frozen_.contains(entry.task))
            return entry.task;
    }
    return nullptr;
}

void
OsScheduler::tick()
{
    ++ticks_;
    if (crowdedCpus_ == 0 || ticks_ < nextDue_)
        return;
    nextDue_ = kNever;
    for (auto &cpu : cpus_) {
        if (cpu.queue.size() < 2)
            continue;
        if (ticks_ - cpu.sliceStart >= sliceTicks_) {
            cpu.sliceStart = ticks_;
            const Queued old = cpu.queue.front();
            cpu.queue.pop_front();
            cpu.queue.push_back(old);
            Task *incoming = cpu.queue.front().task;
            if (incoming != old.task) {
                incoming->counters().contextSwitches += 1;
                cpu.pendingSwitchCycles += cfg_.contextSwitchCycles;
            }
            ++version_;
        }
        nextDue_ = std::min(nextDue_, cpu.sliceStart + sliceTicks_);
    }
}

Cycles
OsScheduler::consumePendingSwitchCycles(unsigned cpu)
{
    const Cycles pending = cpus_[cpu].pendingSwitchCycles;
    cpus_[cpu].pendingSwitchCycles = 0;
    return pending;
}

unsigned
OsScheduler::queueLength(unsigned cpu) const
{
    return static_cast<unsigned>(cpus_[cpu].queue.size());
}

double
OsScheduler::warmthForCount(unsigned co_runners) const
{
    if (co_runners <= 1)
        return 1.0;
    const double n = static_cast<double>(co_runners);
    return 1.0 + cfg_.warmthMaxPenalty *
                     (1.0 - std::exp(-cfg_.warmthRate * (n - 1.0)));
}

double
OsScheduler::warmthMult(unsigned cpu) const
{
    return warmthForCount(queueLength(cpu));
}

unsigned
OsScheduler::activeCores() const
{
    unsigned active = 0;
    for (unsigned core = 0; core < cfg_.cores; ++core) {
        for (unsigned way = 0; way < cfg_.smtWays; ++way) {
            if (runningOn(core * cfg_.smtWays + way)) {
                ++active;
                break;
            }
        }
    }
    return active;
}

bool
OsScheduler::siblingBusy(unsigned cpu) const
{
    if (cfg_.smtWays < 2)
        return false;
    const unsigned core = cpu / cfg_.smtWays;
    const unsigned way = cpu % cfg_.smtWays;
    const unsigned sibling = core * cfg_.smtWays + (way ^ 1u);
    return runningOn(sibling) != nullptr;
}

void
OsScheduler::setFrozen(Task *task, bool frozen)
{
    const bool changed = frozen ? frozen_.insert(task).second
                                : frozen_.erase(task) > 0;
    if (changed)
        ++version_;
}

bool
OsScheduler::isFrozen(const Task *task) const
{
    return frozen_.contains(task);
}

double
OsScheduler::waitingWorkingSet() const
{
    return waitingWorkingSet(0, static_cast<unsigned>(cpus_.size()));
}

double
OsScheduler::waitingWorkingSet(unsigned cpu_begin,
                               unsigned cpu_end) const
{
    double total = 0.0;
    cpu_end = std::min(cpu_end, static_cast<unsigned>(cpus_.size()));
    for (unsigned cpu = cpu_begin; cpu < cpu_end; ++cpu) {
        const Task *running = runningOn(cpu);
        for (const Queued &entry : cpus_[cpu].queue) {
            const Task *task = entry.task;
            if (task != running && !task->finished()) {
                total += static_cast<double>(
                    task->demand().l3WorkingSet);
            }
        }
    }
    return total;
}

unsigned
OsScheduler::totalTasks() const
{
    unsigned total = 0;
    for (const auto &cpu : cpus_)
        total += static_cast<unsigned>(cpu.queue.size());
    return total;
}

void
OsScheduler::rebalance()
{
    // Move one *waiting* task from the longest queue onto each idle CPU
    // that its affinity allows. One pass is enough; completions call
    // this every time. Only a queue of two or more has a waiting task,
    // so the pass ends as soon as no CPU is crowded.
    for (unsigned cpu = 0; cpu < cpus_.size() && crowdedCpus_ != 0; ++cpu) {
        if (!cpus_[cpu].queue.empty())
            continue;
        unsigned fromCpu = 0;
        std::size_t fromIndex = 0; // 0: no candidate (the running front)
        std::size_t fromLen = 1;   // need a queue with >= 2 tasks
        for (unsigned other = 0; other < cpus_.size(); ++other) {
            const std::deque<Queued> &queue = cpus_[other].queue;
            if (other == cpu || queue.size() <= fromLen)
                continue;
            // Waiting tasks only (skip the running front).
            for (std::size_t k = 1; k < queue.size(); ++k) {
                if (allows(queue[k], cpu)) {
                    fromCpu = other;
                    fromIndex = k;
                    fromLen = queue.size();
                    break;
                }
            }
        }
        if (fromIndex != 0) {
            auto &q = cpus_[fromCpu].queue;
            const Queued moved = q[fromIndex];
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(fromIndex));
            if (q.size() == 1)
                --crowdedCpus_;
            cpus_[cpu].queue.push_back(moved);
            ++version_;
        }
    }
}

} // namespace litmus::sim
