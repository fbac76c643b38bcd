/**
 * @file
 * Tests for the OS scheduler: placement, rotation, warmth model,
 * rebalancing, freezing, and SMT sibling detection, plus a randomized
 * differential test against a frozen copy of the scheduler as it was
 * before tick-count slice rotation and affinity bitmasks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/os_scheduler.h"
#include "workload/program.h"
#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

std::unique_ptr<workload::EndlessTask>
makeTask(const std::string &name)
{
    ResourceDemand d;
    d.cpi0 = 1.0;
    return std::make_unique<workload::EndlessTask>(name, d);
}

MachineConfig
smallMachine(unsigned cores = 4, unsigned smt = 1)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.cores = cores;
    cfg.smtWays = smt;
    return cfg;
}

TEST(Scheduler, PlacesOnLeastLoadedCpu)
{
    const auto cfg = smallMachine();
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b"), c = makeTask("c");
    sched.add(a.get());
    sched.add(b.get());
    sched.add(c.get());
    // Three tasks over four CPUs: no CPU holds two.
    unsigned busy = 0;
    for (unsigned cpu = 0; cpu < 4; ++cpu)
        busy += sched.runningOn(cpu) != nullptr;
    EXPECT_EQ(busy, 3u);
}

TEST(Scheduler, RespectsAffinity)
{
    const auto cfg = smallMachine();
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a");
    a->setAffinity({2});
    sched.add(a.get());
    EXPECT_EQ(sched.runningOn(2), a.get());
    EXPECT_EQ(sched.runningOn(0), nullptr);
}

TEST(Scheduler, RejectsOutOfRangeAffinity)
{
    const auto cfg = smallMachine();
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a");
    a->setAffinity({99});
    EXPECT_EXIT(sched.add(a.get()), ::testing::ExitedWithCode(1),
                "affinity");
}

TEST(Scheduler, RotatesOnSliceExpiry)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    sched.add(a.get());
    sched.add(b.get());
    EXPECT_EQ(sched.runningOn(0), a.get());
    // 5 ms slices of 50 us quanta: 100 quanta sum to just under 5 ms
    // in floating point, so the 101st tick expires the slice.
    for (int i = 0; i < 100; ++i)
        sched.tick();
    EXPECT_EQ(sched.runningOn(0), a.get());
    sched.tick();
    EXPECT_EQ(sched.runningOn(0), b.get());
    EXPECT_EQ(b->counters().contextSwitches, 1u);
    EXPECT_GT(sched.consumePendingSwitchCycles(0), 0.0);
    // Consumed: second read is zero.
    EXPECT_DOUBLE_EQ(sched.consumePendingSwitchCycles(0), 0.0);
}

TEST(Scheduler, RejectsNonFiniteQuantum)
{
    const auto cfg = smallMachine(1);
    EXPECT_EXIT(OsScheduler(cfg, std::numeric_limits<double>::quiet_NaN()),
                ::testing::ExitedWithCode(1), "quantum");
    EXPECT_EXIT(OsScheduler(cfg, 0.0), ::testing::ExitedWithCode(1),
                "quantum");
}

TEST(Scheduler, SliceThatTheSumNeverReachesNeverExpires)
{
    // A 1e300 s slice: the sum of 50 us quanta stalls long before it,
    // so the old per-tick sum never rotated either.
    auto cfg = smallMachine(1);
    cfg.timeSlice = 1e300;
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    sched.add(a.get());
    sched.add(b.get());
    const std::uint64_t version = sched.version();
    for (int i = 0; i < 1000; ++i)
        sched.tick();
    EXPECT_EQ(sched.runningOn(0), a.get());
    EXPECT_EQ(sched.version(), version);
}

TEST(Scheduler, NoRotationWhenAlone)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a");
    sched.add(a.get());
    for (int i = 0; i < 300; ++i)
        sched.tick();
    EXPECT_EQ(sched.runningOn(0), a.get());
    EXPECT_EQ(a->counters().contextSwitches, 0u);
}

TEST(Scheduler, RemoveRunningPromotesNext)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    sched.add(a.get());
    sched.add(b.get());
    sched.remove(a.get());
    EXPECT_EQ(sched.runningOn(0), b.get());
    EXPECT_EQ(sched.totalTasks(), 1u);
}

TEST(Scheduler, RemoveUnknownPanics)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a");
    EXPECT_DEATH(sched.remove(a.get()), "not queued");
}

TEST(Scheduler, WarmthCurveShape)
{
    // Figure 14: 1.0 alone, ~1.024 at 10 co-runners, saturating ~1.028
    // past 20.
    const auto cfg = smallMachine();
    OsScheduler sched(cfg, cfg.quantum);
    EXPECT_DOUBLE_EQ(sched.warmthForCount(0), 1.0);
    EXPECT_DOUBLE_EQ(sched.warmthForCount(1), 1.0);
    EXPECT_NEAR(sched.warmthForCount(10), 1.024, 0.002);
    EXPECT_NEAR(sched.warmthForCount(25), 1.028, 0.001);
    // Logarithmic-ish: increments shrink.
    const double d1 = sched.warmthForCount(2) - sched.warmthForCount(1);
    const double d9 =
        sched.warmthForCount(10) - sched.warmthForCount(9);
    EXPECT_GT(d1, d9);
}

TEST(Scheduler, WarmthAppliesPerCpuQueue)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b"), c = makeTask("c");
    sched.add(a.get());
    EXPECT_DOUBLE_EQ(sched.warmthMult(0), 1.0);
    sched.add(b.get());
    sched.add(c.get());
    EXPECT_DOUBLE_EQ(sched.warmthMult(0), sched.warmthForCount(3));
}

TEST(Scheduler, RebalanceFillsIdleCpu)
{
    const auto cfg = smallMachine(2);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b"), c = makeTask("c");
    sched.add(a.get()); // cpu 0
    sched.add(b.get()); // cpu 1
    sched.add(c.get()); // cpu 0 or 1 (queue of 2)
    // Remove the task that ran alone; the waiting task should migrate.
    Task *aloneTask = sched.queueLength(0) == 1 ? a.get() : b.get();
    sched.remove(aloneTask);
    EXPECT_EQ(sched.queueLength(0), 1u);
    EXPECT_EQ(sched.queueLength(1), 1u);
}

TEST(Scheduler, RebalanceHonoursAffinity)
{
    const auto cfg = smallMachine(2);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b"), c = makeTask("c");
    a->setAffinity({0});
    b->setAffinity({0});
    c->setAffinity({0});
    sched.add(a.get());
    sched.add(b.get());
    sched.add(c.get());
    // CPU 1 idle but nothing may move there.
    EXPECT_EQ(sched.queueLength(1), 0u);
    EXPECT_EQ(sched.queueLength(0), 3u);
}

TEST(Scheduler, FrozenTaskSkipped)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    sched.add(a.get());
    sched.add(b.get());
    sched.setFrozen(a.get(), true);
    EXPECT_TRUE(sched.isFrozen(a.get()));
    EXPECT_EQ(sched.runningOn(0), b.get());
    sched.setFrozen(a.get(), false);
    EXPECT_EQ(sched.runningOn(0), a.get());
}

TEST(Scheduler, AllFrozenMeansIdle)
{
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a");
    sched.add(a.get());
    sched.setFrozen(a.get(), true);
    EXPECT_EQ(sched.runningOn(0), nullptr);
    EXPECT_EQ(sched.activeCores(), 0u);
}

TEST(Scheduler, ActiveCoresCountsBusyCores)
{
    const auto cfg = smallMachine(4);
    OsScheduler sched(cfg, cfg.quantum);
    EXPECT_EQ(sched.activeCores(), 0u);
    auto a = makeTask("a"), b = makeTask("b");
    sched.add(a.get());
    sched.add(b.get());
    EXPECT_EQ(sched.activeCores(), 2u);
}

TEST(Scheduler, SmtSiblingDetection)
{
    const auto cfg = smallMachine(2, 2); // 2 cores x 2 ways = 4 cpus
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    a->setAffinity({0}); // core 0 way 0
    b->setAffinity({1}); // core 0 way 1
    sched.add(a.get());
    EXPECT_FALSE(sched.siblingBusy(0));
    sched.add(b.get());
    EXPECT_TRUE(sched.siblingBusy(0));
    EXPECT_TRUE(sched.siblingBusy(1));
    EXPECT_FALSE(sched.siblingBusy(2));
}

TEST(Scheduler, SmtDisabledNeverSibling)
{
    const auto cfg = smallMachine(2, 1);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    sched.add(a.get());
    sched.add(b.get());
    EXPECT_FALSE(sched.siblingBusy(0));
    EXPECT_FALSE(sched.siblingBusy(1));
}

TEST(Scheduler, ActiveCoresWithSmtCountsPhysical)
{
    const auto cfg = smallMachine(2, 2);
    OsScheduler sched(cfg, cfg.quantum);
    auto a = makeTask("a"), b = makeTask("b");
    a->setAffinity({0});
    b->setAffinity({1}); // same physical core
    sched.add(a.get());
    sched.add(b.get());
    EXPECT_EQ(sched.activeCores(), 1u);
}

/**
 * Frozen oracle: the scheduler that summed each CPU's used slice in
 * floating point, tick by tick, walked every CPU on every crowded
 * tick, and searched each waiting task's affinity list in rebalance().
 * Do not optimise it; its only job is to be obviously the old code.
 */
class OracleScheduler
{
  public:
    explicit OracleScheduler(const MachineConfig &cfg) : cfg_(cfg)
    {
        cpus_.resize(cfg.hwThreads());
    }

    void add(Task *task)
    {
        std::vector<unsigned> allowed = task->affinity();
        if (allowed.empty()) {
            for (unsigned i = 0; i < cpus_.size(); ++i)
                allowed.push_back(i);
        }
        unsigned best = allowed.front();
        for (unsigned cpu : allowed) {
            if (cpus_[cpu].queue.size() < cpus_[best].queue.size())
                best = cpu;
        }
        cpus_[best].queue.push_back(task);
        if (cpus_[best].queue.size() == 2)
            ++crowdedCpus_;
        ++version_;
    }

    void remove(Task *task)
    {
        for (auto &cpu : cpus_) {
            auto it = std::find(cpu.queue.begin(), cpu.queue.end(), task);
            if (it == cpu.queue.end())
                continue;
            const bool wasRunning = it == cpu.queue.begin();
            cpu.queue.erase(it);
            if (cpu.queue.size() == 1)
                --crowdedCpus_;
            if (wasRunning || cpu.queue.size() < 2)
                cpu.sliceUsed = 0;
            frozen_.erase(task);
            ++version_;
            rebalance();
            return;
        }
        FAIL() << "oracle: task " << task->name() << " not queued";
    }

    Task *runningOn(unsigned cpu) const
    {
        const std::deque<Task *> &queue = cpus_[cpu].queue;
        if (frozen_.empty())
            return queue.empty() ? nullptr : queue.front();
        for (Task *task : queue) {
            if (!frozen_.contains(task))
                return task;
        }
        return nullptr;
    }

    void tick(Seconds dt)
    {
        if (crowdedCpus_ == 0)
            return;
        for (auto &cpu : cpus_) {
            if (cpu.queue.size() < 2) {
                cpu.sliceUsed = 0;
                continue;
            }
            cpu.sliceUsed += dt;
            if (cpu.sliceUsed >= cfg_.timeSlice) {
                cpu.sliceUsed = 0;
                Task *old = cpu.queue.front();
                cpu.queue.pop_front();
                cpu.queue.push_back(old);
                Task *incoming = cpu.queue.front();
                if (incoming != old) {
                    incoming->counters().contextSwitches += 1;
                    cpu.pendingSwitchCycles += cfg_.contextSwitchCycles;
                }
                ++version_;
            }
        }
    }

    Cycles consumePendingSwitchCycles(unsigned cpu)
    {
        const Cycles pending = cpus_[cpu].pendingSwitchCycles;
        cpus_[cpu].pendingSwitchCycles = 0;
        return pending;
    }

    unsigned queueLength(unsigned cpu) const
    {
        return static_cast<unsigned>(cpus_[cpu].queue.size());
    }

    void setFrozen(Task *task, bool frozen)
    {
        const bool changed = frozen ? frozen_.insert(task).second
                                    : frozen_.erase(task) > 0;
        if (changed)
            ++version_;
    }

    std::uint64_t version() const { return version_; }

  private:
    struct CpuState
    {
        std::deque<Task *> queue;
        Seconds sliceUsed = 0;
        Cycles pendingSwitchCycles = 0;
    };

    void rebalance()
    {
        for (unsigned cpu = 0; cpu < cpus_.size(); ++cpu) {
            if (!cpus_[cpu].queue.empty())
                continue;
            Task *candidate = nullptr;
            unsigned fromCpu = 0;
            std::size_t fromLen = 1;
            for (unsigned other = 0; other < cpus_.size(); ++other) {
                if (other == cpu || cpus_[other].queue.size() <= fromLen)
                    continue;
                for (std::size_t k = 1; k < cpus_[other].queue.size();
                     ++k) {
                    Task *t = cpus_[other].queue[k];
                    const auto &aff = t->affinity();
                    if (aff.empty() || std::find(aff.begin(), aff.end(),
                                                 cpu) != aff.end()) {
                        candidate = t;
                        fromCpu = other;
                        fromLen = cpus_[other].queue.size();
                        break;
                    }
                }
            }
            if (candidate) {
                auto &q = cpus_[fromCpu].queue;
                q.erase(std::find(q.begin(), q.end(), candidate));
                if (q.size() == 1) {
                    --crowdedCpus_;
                    cpus_[fromCpu].sliceUsed = 0;
                }
                cpus_[cpu].queue.push_back(candidate);
                ++version_;
            }
        }
    }

    const MachineConfig &cfg_;
    std::vector<CpuState> cpus_;
    std::set<const Task *> frozen_;
    std::uint64_t version_ = 0;
    unsigned crowdedCpus_ = 0;
};

/** One seeded random walk of both schedulers over the same operations. */
void
runDifferential(Seconds time_slice, Seconds quantum, std::uint64_t seed,
                unsigned ops)
{
    auto cfg = smallMachine(3, 2); // 6 CPUs, SMT pairs
    cfg.timeSlice = time_slice;
    OsScheduler real(cfg, quantum);
    OracleScheduler oracle(cfg);
    Rng rng(seed);
    const unsigned cpus = cfg.hwThreads();

    // Twin tasks: oracleTasks[i] mirrors realTasks[i].
    std::vector<std::unique_ptr<workload::EndlessTask>> realTasks,
        oracleTasks;
    std::vector<std::size_t> live;
    std::uint64_t rotations = 0, removedRunning = 0, removedWaiting = 0;

    // Twins share an id, so running tasks compare by id.
    const auto runningId = [](const Task *task) {
        return task ? static_cast<std::int64_t>(task->id()) : -1;
    };
    // Compare every observable after one operation.
    const auto check = [&](unsigned op, std::uint64_t realBefore,
                           std::uint64_t oracleBefore) {
        ASSERT_EQ(real.version() != realBefore,
                  oracle.version() != oracleBefore)
            << "op " << op;
        for (unsigned cpu = 0; cpu < cpus; ++cpu) {
            ASSERT_EQ(real.queueLength(cpu), oracle.queueLength(cpu))
                << "op " << op << " cpu " << cpu;
            ASSERT_EQ(runningId(real.runningOn(cpu)),
                      runningId(oracle.runningOn(cpu)))
                << "op " << op << " cpu " << cpu;
            ASSERT_EQ(real.consumePendingSwitchCycles(cpu),
                      oracle.consumePendingSwitchCycles(cpu))
                << "op " << op << " cpu " << cpu;
        }
        for (std::size_t i : live) {
            ASSERT_EQ(realTasks[i]->counters().contextSwitches,
                      oracleTasks[i]->counters().contextSwitches)
                << "op " << op << " task " << i;
        }
    };

    for (unsigned op = 0; op < ops; ++op) {
        const std::uint64_t realBefore = real.version();
        const std::uint64_t oracleBefore = oracle.version();
        const double roll = rng.uniform();
        if (roll < 0.30 && live.size() < 4 * cpus) {
            // add: unpinned, pinned to one CPU, or pooled over a subset.
            std::vector<unsigned> affinity;
            const std::uint64_t kind = rng.below(3);
            if (kind == 1) {
                affinity.push_back(static_cast<unsigned>(rng.below(cpus)));
            } else if (kind == 2) {
                for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                    if (rng.chance(0.5))
                        affinity.push_back(cpu);
                }
                if (affinity.empty())
                    affinity.push_back(cpus - 1);
            }
            std::string name = "t";
            name += std::to_string(realTasks.size());
            realTasks.push_back(makeTask(name));
            oracleTasks.push_back(makeTask(name));
            for (auto *tasks : {&realTasks, &oracleTasks}) {
                tasks->back()->setId(realTasks.size() - 1);
                tasks->back()->setAffinity(affinity);
            }
            live.push_back(realTasks.size() - 1);
            real.add(realTasks.back().get());
            oracle.add(oracleTasks.back().get());
        } else if (roll < 0.50 && !live.empty()) {
            // remove a running or a waiting task.
            const std::size_t at = rng.below(live.size());
            const std::size_t i = live[at];
            bool running = false;
            for (unsigned cpu = 0; cpu < cpus; ++cpu)
                running = running || real.runningOn(cpu) == realTasks[i].get();
            ++(running ? removedRunning : removedWaiting);
            real.remove(realTasks[i].get());
            oracle.remove(oracleTasks[i].get());
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        } else if (roll < 0.55 && !live.empty()) {
            const std::size_t i = live[rng.below(live.size())];
            const bool frozen = rng.chance(0.5);
            real.setFrozen(realTasks[i].get(), frozen);
            oracle.setFrozen(oracleTasks[i].get(), frozen);
        } else {
            // A burst of ticks, each checked on its own.
            const auto burst = static_cast<unsigned>(rng.range(1, 150));
            for (unsigned t = 0; t < burst; ++t) {
                const std::uint64_t realTickBefore = real.version();
                const std::uint64_t oracleTickBefore = oracle.version();
                real.tick();
                oracle.tick(quantum);
                rotations += oracle.version() - oracleTickBefore;
                check(op, realTickBefore, oracleTickBefore);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
            continue;
        }
        check(op, realBefore, oracleBefore);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The walk must have exercised what it claims to compare.
    EXPECT_GT(rotations, 10u);
    EXPECT_GT(removedRunning, 10u);
    EXPECT_GT(removedWaiting, 10u);
}

TEST(SchedulerDifferential, DefaultSliceAndQuantum)
{
    // 5 ms / 50 us: the float sum reaches the slice on the 101st tick.
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runDifferential(5e-3, 50e-6, seed, 1500);
}

TEST(SchedulerDifferential, NonMultipleRatio)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runDifferential(1.3e-3, 70e-6, seed, 1500);
}

TEST(SchedulerDifferential, SliceShorterThanQuantum)
{
    // Every crowded tick expires the slice.
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runDifferential(20e-6, 50e-6, seed, 1500);
}

} // namespace
} // namespace litmus::sim
