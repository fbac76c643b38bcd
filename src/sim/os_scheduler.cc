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
        // The scan below picks the lowest-index shortest queue, so an
        // empty CPU, when there is one, is the first zero bit of the
        // occupied mask; only a machine with every CPU busy is scanned.
        best = firstIdleCpu();
        if (best == cpus_.size()) {
            best = 0;
            for (unsigned cpu = 1; cpu < cpus_.size(); ++cpu) {
                if (cpus_[cpu].queue.size() < cpus_[best].queue.size())
                    best = cpu;
            }
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
    if (!target.queue.empty())
        enterWaiting(target, task);
    target.queue.push_back(entry);
    if (occupied_.empty()) {
        // The first task: one allocation each for the mask and for
        // the warmth of the queue lengths a machine usually sees.
        occupied_.assign(maskWords_, 0);
        warmth_.reserve(8);
    }
    setOccupied(best, true);
    while (warmth_.size() <= target.queue.size()) {
        const auto count = static_cast<unsigned>(warmth_.size());
        warmth_.push_back(warmthCurve(count));
    }
    if (target.queue.size() == 2) {
        ++crowdedCpus_;
        startSlice(target);
    }
    ++version_;
}

void
OsScheduler::remove(Task *task)
{
    for (unsigned index = 0; index < cpus_.size(); ++index) {
        CpuState &cpu = cpus_[index];
        auto it = std::find_if(cpu.queue.begin(), cpu.queue.end(),
                               [task](const Queued &q) {
                                   return q.task == task;
                               });
        if (it != cpu.queue.end()) {
            const bool wasRunning = it == cpu.queue.begin();
            if (!wasRunning)
                leaveWaiting(cpu, task);
            if (it->mask != kAnyCpu)
                freeMasks_.push_back(it->mask);
            cpu.queue.erase(it);
            if (cpu.queue.empty())
                setOccupied(index, false);
            if (wasRunning && !cpu.queue.empty())
                leaveWaiting(cpu, cpu.queue.front().task); // now runs
            if (cpu.queue.size() == 1)
                --crowdedCpus_;
            // The next task in line gets a fresh slice. A queue that
            // drops below two has no slice; one that refills starts a
            // fresh one in add(), never carrying a partial slice over.
            if (wasRunning && cpu.queue.size() >= 2)
                startSlice(cpu);
            if (frozen_.erase(task) != 0 && frozen_.empty())
                resyncWaitingSums();
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
    const std::vector<Queued> &queue = cpus_[cpu].queue;
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
            Task *outgoing = cpu.queue.front().task;
            Task *incoming = cpu.queue[1].task;
            leaveWaiting(cpu, incoming);
            enterWaiting(cpu, outgoing);
            std::rotate(cpu.queue.begin(), cpu.queue.begin() + 1,
                        cpu.queue.end());
            if (incoming != outgoing) {
                incoming->counters().contextSwitches += 1;
                cpu.pendingSwitchCycles += cfg_.contextSwitchCycles;
            }
            ++version_;
        }
        nextDue_ = std::min(nextDue_, cpu.sliceStart + sliceTicks_);
    }
}

void
OsScheduler::skipQuietTicks(std::uint64_t k)
{
    if (k > quietTicks())
        panic("OsScheduler::skipQuietTicks: ", k, " ticks pass the next "
              "possible slice expiry (", quietTicks(), " quiet)");
    ticks_ += k;
}

Cycles
OsScheduler::consumePendingSwitchCycles(unsigned cpu)
{
    const Cycles pending = cpus_[cpu].pendingSwitchCycles;
    cpus_[cpu].pendingSwitchCycles = 0;
    return pending;
}

double
OsScheduler::warmthCurve(unsigned co_runners) const
{
    if (co_runners <= 1)
        return 1.0;
    const double n = static_cast<double>(co_runners);
    return 1.0 + cfg_.warmthMaxPenalty *
                     (1.0 - std::exp(-cfg_.warmthRate * (n - 1.0)));
}

unsigned
OsScheduler::activeCores() const
{
    // A core is smtWays consecutive CPUs, and smtWays is 1 or 2
    // (MachineConfig::validate), so the core holding cpu ends at
    // cpu | (smtWays - 1).
    const unsigned lastWay = cfg_.smtWays - 1;
    unsigned active = 0;
    unsigned nextCore = 0; // first CPU past the last core counted
    forEachOccupied(0, cpuCount(), [&](unsigned cpu) {
        // Count a core once: its other ways are not asked.
        if (cpu >= nextCore && runningOn(cpu)) {
            ++active;
            nextCore = (cpu | lastWay) + 1;
        }
    });
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
    if (changed) {
        ++version_;
        if (frozen_.empty())
            resyncWaitingSums();
    }
}

bool
OsScheduler::isFrozen(const Task *task) const
{
    return frozen_.contains(task);
}

void
OsScheduler::addWaitingBytes(CpuState &cpu, Bytes bytes)
{
    cpu.waitingBytes += bytes;
    if (cpu.waitingBytes < bytes)
        ++waitingWraps_;
}

void
OsScheduler::enterWaiting(CpuState &cpu, const Task *task)
{
    if (!task->finished())
        addWaitingBytes(cpu, task->demand().l3WorkingSet);
}

void
OsScheduler::leaveWaiting(CpuState &cpu, const Task *task)
{
    if (task->finished())
        return;
    const Bytes bytes = task->demand().l3WorkingSet;
    if (cpu.waitingBytes < bytes)
        --waitingWraps_;
    cpu.waitingBytes -= bytes;
}

template <typename Add>
void
OsScheduler::forEachWaiting(unsigned cpu, Add add) const
{
    const Task *running = runningOn(cpu);
    for (const Queued &entry : cpus_[cpu].queue) {
        const Task *task = entry.task;
        if (task != running && !task->finished())
            add(task->demand().l3WorkingSet);
    }
}

void
OsScheduler::resyncWaitingSums()
{
    waitingWraps_ = 0;
    for (unsigned cpu = 0; cpu < cpus_.size(); ++cpu) {
        CpuState &state = cpus_[cpu];
        state.waitingBytes = 0;
        forEachWaiting(cpu,
                       [&](Bytes bytes) { addWaitingBytes(state, bytes); });
    }
}

double
OsScheduler::waitingWorkingSet(unsigned cpu_begin,
                               unsigned cpu_end) const
{
    // Integers up to 2^53 add exactly in a double.
    constexpr std::uint64_t kExact = std::uint64_t{1} << 53;
    cpu_end = std::min(cpu_end, cpuCount());
    if (frozen_.empty() && waitingWraps_ == 0) {
        // Only a queue of two or more has a task waiting. A machine
        // that has one is mostly busy, where this plain walk costs
        // less than a walk of the occupied CPUs.
        if (crowdedCpus_ == 0)
            return 0.0;
        std::uint64_t total = 0;
        unsigned cpu = cpu_begin;
        for (; cpu < cpu_end && cpus_[cpu].waitingBytes <= kExact - total;
             ++cpu)
            total += cpus_[cpu].waitingBytes;
        if (cpu >= cpu_end)
            return static_cast<double>(total);
    }
    double total = 0.0;
    for (unsigned cpu = cpu_begin; cpu < cpu_end; ++cpu) {
        forEachWaiting(cpu, [&total](Bytes bytes) {
            total += static_cast<double>(bytes);
        });
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
    if (crowdedCpus_ == 0)
        return;
    // An idle CPU no waiting task may run on takes nothing: OR the
    // waiting tasks' masks once and skip the CPUs outside the union.
    // The pass only turns waiting tasks into running ones, so the
    // union taken here covers every task still waiting later on.
    bool anywhere = false;
    reach_.assign(maskWords_, 0);
    for (const CpuState &state : cpus_) {
        for (std::size_t k = 1; k < state.queue.size(); ++k) {
            const Queued &entry = state.queue[k];
            if (entry.mask == kAnyCpu) {
                anywhere = true;
                break;
            }
            for (std::size_t w = 0; w < maskWords_; ++w)
                reach_[w] |= masks_[entry.mask * maskWords_ + w];
        }
        if (anywhere)
            break;
    }
    for (unsigned cpu = 0; cpu < cpus_.size() && crowdedCpus_ != 0; ++cpu) {
        if (!cpus_[cpu].queue.empty() ||
            (!anywhere && ((reach_[cpu / 64] >> (cpu % 64)) & 1) == 0))
            continue;
        unsigned fromCpu = 0;
        std::size_t fromIndex = 0; // 0: no candidate (the running front)
        std::size_t fromLen = 1;   // need a queue with >= 2 tasks
        for (unsigned other = 0; other < cpus_.size(); ++other) {
            const std::vector<Queued> &queue = cpus_[other].queue;
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
            leaveWaiting(cpus_[fromCpu], moved.task);
            q.erase(q.begin() + static_cast<std::ptrdiff_t>(fromIndex));
            if (q.size() == 1)
                --crowdedCpus_;
            cpus_[cpu].queue.push_back(moved);
            setOccupied(cpu, true);
            ++version_;
        }
    }
}

} // namespace litmus::sim
