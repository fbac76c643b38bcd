/**
 * @file
 * Tests for the OS scheduler: placement, rotation, warmth model,
 * rebalancing, freezing, and SMT sibling detection, plus a randomized
 * differential test against a frozen copy of the scheduler as it was
 * before tick-count slice rotation, affinity bitmasks and per-CPU
 * waiting working-set sums.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/os_scheduler.h"
#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

std::unique_ptr<Task>
makeTask(const std::string &name)
{
    ResourceDemand d;
    d.cpi0 = 1.0;
    return std::make_unique<Task>(name, d);
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

TEST(Scheduler, CachedWarmthIsTheFormula)
{
    // Each queue length's warmth is computed once; it must be the
    // formula's value bit for bit at every length a queue reaches.
    const auto cfg = smallMachine(1);
    OsScheduler sched(cfg, cfg.quantum);
    const auto formula = [&cfg](unsigned n) {
        if (n <= 1)
            return 1.0;
        return 1.0 + cfg.warmthMaxPenalty *
                         (1.0 - std::exp(-cfg.warmthRate *
                                         (static_cast<double>(n) - 1.0)));
    };
    const auto same = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    constexpr unsigned kLongest = 4096;
    std::vector<std::unique_ptr<Task>> tasks;
    for (unsigned n = 1; n <= kLongest; ++n) {
        tasks.push_back(makeTask("t"));
        sched.add(tasks.back().get());
        ASSERT_TRUE(same(sched.warmthMult(0), formula(n))) << "n " << n;
    }
    for (unsigned n = 0; n <= kLongest + 100; ++n)
        ASSERT_TRUE(same(sched.warmthForCount(n), formula(n))) << "n " << n;
    // Shrinking queues read the same cached values.
    for (unsigned n = kLongest; n > 0; --n) {
        ASSERT_TRUE(same(sched.warmthMult(0), formula(n))) << "n " << n;
        sched.remove(tasks[n - 1].get());
    }
    EXPECT_TRUE(same(sched.warmthMult(0), 1.0));
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
 * tick, searched each waiting task's affinity list in rebalance(),
 * walked every queue for the waiting working set, and every CPU for
 * the active cores.
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

    unsigned activeCores() const
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

    double waitingWorkingSet(unsigned cpu_begin, unsigned cpu_end) const
    {
        double total = 0.0;
        cpu_end = std::min(cpu_end, static_cast<unsigned>(cpus_.size()));
        for (unsigned cpu = cpu_begin; cpu < cpu_end; ++cpu) {
            const Task *running = runningOn(cpu);
            for (const Task *task : cpus_[cpu].queue) {
                if (task != running && !task->finished()) {
                    total += static_cast<double>(
                        task->demand().l3WorkingSet);
                }
            }
        }
        return total;
    }

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

/** Bit pattern of a double: compares +0 and -0 apart. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(Scheduler, WaitingWorkingSetPast2To53IsTheOrderedSum)
{
    const auto cfg = smallMachine(1);
    OsScheduler real(cfg, cfg.quantum);
    OracleScheduler oracle(cfg);
    std::vector<std::unique_ptr<Task>> realTasks, oracleTasks;
    const auto addTwins = [&](Bytes ws) {
        ResourceDemand d;
        d.l3WorkingSet = ws;
        realTasks.push_back(std::make_unique<Task>("t", d));
        oracleTasks.push_back(std::make_unique<Task>("t", d));
        real.add(realTasks.back().get());
        oracle.add(oracleTasks.back().get());
    };
    const auto same = [&] {
        return bits(real.waitingWorkingSet(0, 1)) ==
               bits(oracle.waitingWorkingSet(0, 1));
    };
    // Behind the running front, two sets just past 2^52 and four of one
    // byte: in queue order the double sum sticks at 2^53 + 4, while the
    // integer total, 2^53 + 6, converts exactly.
    const Bytes big = (Bytes{1} << 52) + 1;
    for (Bytes ws : {Bytes{0}, big, big, Bytes{1}, Bytes{1}, Bytes{1},
                     Bytes{1}})
        addTwins(ws);
    EXPECT_EQ(oracle.waitingWorkingSet(0, 1),
              static_cast<double>((Bytes{1} << 53) + 4));
    EXPECT_NE(oracle.waitingWorkingSet(0, 1),
              static_cast<double>((Bytes{1} << 53) + 6));
    EXPECT_TRUE(same());
    // Rotations reorder the queue, and so the rounding.
    for (int i = 0; i < 1000; ++i) {
        real.tick();
        oracle.tick(cfg.quantum);
        ASSERT_TRUE(same()) << "tick " << i;
    }
    // Three sets past 2^63 wrap the 64-bit sum.
    for (int i = 0; i < 3; ++i)
        addTwins((Bytes{1} << 63) + 3);
    EXPECT_TRUE(same());
    // Removing every task, the sum falls back below 2^53.
    for (std::size_t i = 0; i < realTasks.size(); ++i) {
        real.remove(realTasks[i].get());
        oracle.remove(oracleTasks[i].get());
        ASSERT_TRUE(same()) << "removed " << i;
    }
}

/** Instructions in each phase of a walk program. */
constexpr Instructions kWalkPhase = 1000;

/**
 * A task for the differential walk: endless with the one working set,
 * or a program with one phase of kWalkPhase instructions per set.
 */
std::unique_ptr<Task>
makeWalkTask(const std::string &name, const std::vector<Bytes> &sets)
{
    if (sets.size() == 1) {
        ResourceDemand d;
        d.l3WorkingSet = sets.front();
        return std::make_unique<Task>(name, d);
    }
    std::vector<Phase> phases;
    for (Bytes ws : sets) {
        Phase phase;
        phase.name = name;
        phase.instructions = kWalkPhase;
        phase.demand.l3WorkingSet = ws;
        phases.push_back(phase);
    }
    return std::make_unique<Task>(name, std::move(phases));
}

/**
 * One seeded random walk of both schedulers over the same operations,
 * on a machine of @p cores cores of two SMT ways (6 CPUs by default).
 */
void
runDifferential(Seconds time_slice, Seconds quantum, std::uint64_t seed,
                unsigned ops, unsigned cores = 3)
{
    auto cfg = smallMachine(cores, 2);
    cfg.timeSlice = time_slice;
    OsScheduler real(cfg, quantum);
    OracleScheduler oracle(cfg);
    Rng rng(seed);
    const unsigned cpus = cfg.hwThreads();

    // Twin tasks: oracleTasks[i] mirrors realTasks[i].
    std::vector<std::unique_ptr<Task>> realTasks, oracleTasks;
    // The demand each real twin started with.
    std::vector<const ResourceDemand *> firstDemand;
    std::vector<std::size_t> live;
    std::set<std::size_t> frozen;
    std::uint64_t rotations = 0, removedRunning = 0, removedWaiting = 0;
    std::uint64_t finishedRotatedOut = 0, changedRotatedOut = 0;
    std::uint64_t thaws = 0, thawsByRemove = 0;
    std::uint64_t nonZeroFrozen = 0, nonZeroThawed = 0;
    std::uint64_t runningPast64 = 0;

    // Twins share an id, so running tasks compare by id.
    const auto runningId = [](const Task *task) {
        return task ? static_cast<std::int64_t>(task->id()) : -1;
    };
    // CPU ranges the waiting working set is compared over: each socket
    // of SMT pairs, straddling ones, the whole machine, past its end,
    // and empty; on a machine past 64 CPUs, ranges ending at, starting
    // at and straddling the first word of the occupied-CPU mask.
    const std::vector<std::pair<unsigned, unsigned>> ranges = {
        {0, cpus}, {0, 2},   {2, 4},    {4, 6},        {1, 5},
        {3, 99},   {5, 5},   {0, 64},   {64, cpus},    {60, 70},
        {63, 65},  {70, 64}, {cpus - 1, cpus + 40}};
    // Compare every observable after one operation.
    const auto check = [&](unsigned op, std::uint64_t realBefore,
                           std::uint64_t oracleBefore) {
        ASSERT_EQ(real.version() != realBefore,
                  oracle.version() != oracleBefore)
            << "op " << op;
        ASSERT_EQ(real.activeCores(), oracle.activeCores()) << "op " << op;
        for (unsigned cpu = 0; cpu < cpus; ++cpu) {
            ASSERT_EQ(real.queueLength(cpu), oracle.queueLength(cpu))
                << "op " << op << " cpu " << cpu;

            ASSERT_EQ(runningId(real.runningOn(cpu)),
                      runningId(oracle.runningOn(cpu)))
                << "op " << op << " cpu " << cpu;
            if (cpu >= 64 && real.runningOn(cpu))
                ++runningPast64;
            ASSERT_EQ(real.consumePendingSwitchCycles(cpu),
                      oracle.consumePendingSwitchCycles(cpu))
                << "op " << op << " cpu " << cpu;
        }
        for (std::size_t i : live) {
            ASSERT_EQ(realTasks[i]->counters().contextSwitches,
                      oracleTasks[i]->counters().contextSwitches)
                << "op " << op << " task " << i;
        }
        for (const auto &[begin, end] : ranges) {
            // The occupied-CPU walk visits exactly the non-empty queues
            // in the range, in index order.
            std::vector<unsigned> walked, occupied;
            real.forEachOccupied(begin, end, [&](unsigned cpu) {
                walked.push_back(cpu);
            });
            for (unsigned cpu = begin; cpu < std::min(end, cpus); ++cpu) {
                if (oracle.queueLength(cpu) > 0)
                    occupied.push_back(cpu);
            }
            ASSERT_EQ(walked, occupied)
                << "op " << op << " cpus [" << begin << ", " << end
                << ")";
            ASSERT_EQ(bits(real.waitingWorkingSet(begin, end)),
                      bits(oracle.waitingWorkingSet(begin, end)))
                << "op " << op << " cpus [" << begin << ", " << end
                << ")";
        }
        if (oracle.waitingWorkingSet(0, cpus) != 0) {
            if (!frozen.empty())
                ++nonZeroFrozen;
            else if (thaws > 0)
                ++nonZeroThawed;
        }
    };

    for (unsigned op = 0; op < ops; ++op) {
        const std::uint64_t realBefore = real.version();
        const std::uint64_t oracleBefore = oracle.version();
        const double roll = rng.uniform();
        if (roll < 0.25 && live.size() < 4 * cpus) {
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
            // An endless task, or a program of two or three phases,
            // each with its own working set.
            std::vector<Bytes> sets(rng.chance(0.5) ? 1 : rng.range(2, 3));
            const auto step = static_cast<Bytes>(rng.range(1, 1 << 16));
            sets[0] = static_cast<Bytes>(rng.range(1, 1 << 20)) * 64;
            for (std::size_t k = 1; k < sets.size(); ++k)
                sets[k] = sets[k - 1] + step * 64;
            std::string name = "t";
            name += std::to_string(realTasks.size());
            realTasks.push_back(makeWalkTask(name, sets));
            oracleTasks.push_back(makeWalkTask(name, sets));
            firstDemand.push_back(&realTasks.back()->demand());
            for (auto *tasks : {&realTasks, &oracleTasks}) {
                tasks->back()->setId(realTasks.size() - 1);
                tasks->back()->setAffinity(affinity);
            }
            live.push_back(realTasks.size() - 1);
            real.add(realTasks.back().get());
            oracle.add(oracleTasks.back().get());
        } else if (roll < 0.40 && !live.empty()) {
            // remove a running or a waiting task, now and then a
            // frozen one.
            std::size_t at = rng.below(live.size());
            if (!frozen.empty() && rng.chance(0.25))
                at = static_cast<std::size_t>(
                    std::find(live.begin(), live.end(), *frozen.begin()) -
                    live.begin());
            const std::size_t i = live[at];
            bool running = false;
            for (unsigned cpu = 0; cpu < cpus; ++cpu)
                running = running || real.runningOn(cpu) == realTasks[i].get();
            ++(running ? removedRunning : removedWaiting);
            real.remove(realTasks[i].get());
            oracle.remove(oracleTasks[i].get());
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
            if (frozen.erase(i) != 0 && frozen.empty()) {
                ++thaws;
                ++thawsByRemove;
            }
        } else if (roll < 0.47 && !live.empty()) {
            // Freeze or unfreeze a live task, mostly a frozen one when
            // unfreezing.
            const bool freeze = rng.chance(0.5);
            std::size_t i = live[rng.below(live.size())];
            if (!freeze && !frozen.empty() && rng.chance(0.75))
                i = *std::next(frozen.begin(),
                               static_cast<std::ptrdiff_t>(
                                   rng.below(frozen.size())));
            real.setFrozen(realTasks[i].get(), freeze);
            oracle.setFrozen(oracleTasks[i].get(), freeze);
            if (freeze)
                frozen.insert(i);
            else if (frozen.erase(i) != 0 && frozen.empty())
                ++thaws;
        } else if (roll < 0.65) {
            // Run each CPU's task as a quantum of the engine would: a
            // program may change phase or finish. While a front task is
            // frozen, the one that runs may be a waiting one.
            for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                Task *task = real.runningOn(cpu);
                if (!task || task->finished())
                    continue;
                const Instructions n = rng.uniform(0, kWalkPhase);
                task->retire(n);
                oracleTasks[task->id()]->retire(n);
            }
        } else {
            // A burst of ticks, each checked on its own.
            const auto burst = static_cast<unsigned>(rng.range(1, 150));
            for (unsigned t = 0; t < burst; ++t) {
                const std::uint64_t realTickBefore = real.version();
                const std::uint64_t oracleTickBefore = oracle.version();
                std::vector<const Task *> runningBefore(cpus);
                for (unsigned cpu = 0; cpu < cpus; ++cpu)
                    runningBefore[cpu] = real.runningOn(cpu);
                real.tick();
                oracle.tick(quantum);
                rotations += oracle.version() - oracleTickBefore;
                for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                    const Task *out = runningBefore[cpu];
                    if (!out || out == real.runningOn(cpu))
                        continue;
                    if (out->finished())
                        ++finishedRotatedOut;
                    else if (&out->demand() != firstDemand[out->id()])
                        ++changedRotatedOut;
                }
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
    EXPECT_GT(finishedRotatedOut, 0u);
    EXPECT_GT(changedRotatedOut, 0u);
    EXPECT_GT(thawsByRemove, 0u);
    EXPECT_GT(nonZeroFrozen, 0u);
    EXPECT_GT(nonZeroThawed, 0u);
    if (cpus > 64) {
        EXPECT_GT(runningPast64, 0u);
    }
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

TEST(SchedulerDifferential, TwoMaskWords)
{
    // 80 CPUs: the occupied-CPU mask spans two words, and a core's two
    // ways straddle none of them.
    for (std::uint64_t seed = 1; seed <= 2; ++seed)
        runDifferential(5e-3, 50e-6, seed, 2000, 40);
}

/**
 * Random adds and removes, pinned tasks included, on a machine of
 * @p cores cores of two SMT ways: every add must place its task on
 * the CPU the old scan over all queue lengths picks.
 */
void
runPlacementDifferential(unsigned cores, std::uint64_t seed, unsigned ops)
{
    const auto cfg = smallMachine(cores, 2);
    OsScheduler sched(cfg, cfg.quantum);
    Rng rng(seed);
    const unsigned cpus = cfg.hwThreads();
    std::vector<std::unique_ptr<Task>> tasks;
    std::vector<Task *> live;
    std::uint64_t placedIdle = 0, placedBusy = 0, placedPinned = 0;

    // The scan: the lowest-index shortest queue the task may run on.
    const auto scan = [&](const std::vector<unsigned> &affinity) {
        std::vector<unsigned> allowed = affinity;
        if (allowed.empty()) {
            for (unsigned cpu = 0; cpu < cpus; ++cpu)
                allowed.push_back(cpu);
        }
        unsigned best = allowed.front();
        for (unsigned cpu : allowed) {
            if (sched.queueLength(cpu) < sched.queueLength(best))
                best = cpu;
        }
        return best;
    };

    for (unsigned op = 0; op < ops; ++op) {
        // Alternate filling and draining phases, so the machine passes
        // through idle, partly busy and crowded states.
        const double addChance = (op / (4 * cpus)) % 2 == 0 ? 0.7 : 0.3;
        if (live.empty() ||
            (live.size() < 3 * cpus && rng.chance(addChance))) {
            std::vector<unsigned> affinity;
            if (rng.chance(0.3)) {
                for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                    if (rng.chance(0.3))
                        affinity.push_back(cpu);
                }
                if (affinity.empty())
                    affinity.push_back(
                        static_cast<unsigned>(rng.below(cpus)));
            }
            const unsigned expected = scan(affinity);
            std::vector<unsigned> before(cpus);
            for (unsigned cpu = 0; cpu < cpus; ++cpu)
                before[cpu] = sched.queueLength(cpu);
            std::string name = "t";
            name += std::to_string(tasks.size());
            tasks.push_back(makeTask(name));
            tasks.back()->setAffinity(affinity);
            sched.add(tasks.back().get());
            live.push_back(tasks.back().get());
            // add() moves nothing else: the one longer queue is the
            // chosen CPU.
            for (unsigned cpu = 0; cpu < cpus; ++cpu) {
                ASSERT_EQ(sched.queueLength(cpu),
                          before[cpu] + (cpu == expected ? 1u : 0u))
                    << "op " << op << " cpu " << cpu;
            }
            if (!affinity.empty())
                ++placedPinned;
            else if (before[expected] == 0)
                ++placedIdle;
            else
                ++placedBusy;
        } else {
            const std::size_t at = rng.below(live.size());
            sched.remove(live[at]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        }
    }
    // Both unpinned cases and pinned placement were exercised.
    EXPECT_GT(placedIdle, 20u);
    EXPECT_GT(placedBusy, 20u);
    EXPECT_GT(placedPinned, 20u);
}

TEST(PlacementDifferential, OneMaskWord)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        runPlacementDifferential(3, seed, 2000);
}

TEST(PlacementDifferential, FullMaskWord)
{
    // 64 CPUs: a fully occupied word has no zero bit at all.
    for (std::uint64_t seed = 1; seed <= 2; ++seed)
        runPlacementDifferential(32, seed, 3000);
}

TEST(PlacementDifferential, TwoMaskWords)
{
    // 80 CPUs: the first idle CPU may sit in the second word, and the
    // second word's bits past the last CPU are never a candidate.
    for (std::uint64_t seed = 1; seed <= 2; ++seed)
        runPlacementDifferential(40, seed, 3000);
}

} // namespace
} // namespace litmus::sim
