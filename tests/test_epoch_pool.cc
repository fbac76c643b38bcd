/**
 * @file
 * EpochPool barrier tests.
 *
 * The pool's barrier handoff is the one place in the tree where data
 * crosses threads through atomics (Batch::pending release-decrement /
 * acquire-load — see the ordering audit in epoch_pool.h). These tests
 * hammer that handoff so the TSan job in CI exercises it: every write
 * a job makes must be visible to the caller when run() returns, over
 * many epochs, at several thread counts, including the inline
 * single-thread path.
 */

#include "common/epoch_pool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/machine.h"
#include "sim/machine_catalog.h"
#include "workload/program.h"

namespace
{

using litmus::EpochPool;

TEST(EpochPool, RunsEveryJobExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        EpochPool pool(threads);
        std::vector<int> hits(64, 0);
        std::vector<std::function<void()>> jobs;
        for (std::size_t i = 0; i < hits.size(); ++i)
            jobs.push_back([&hits, i] { ++hits[i]; });
        pool.run(jobs);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i], 1) << "job " << i << " with "
                                  << threads << " thread(s)";
    }
}

TEST(EpochPool, BarrierPublishesJobWritesToTheCaller)
{
    // Plain (non-atomic) per-job writes, read back by the caller
    // right after run() returns. Any missing release/acquire pairing
    // in the handoff shows up here as a torn read — and as a TSan
    // race in the sanitizer matrix.
    EpochPool pool(4);
    constexpr std::size_t kJobs = 128;
    constexpr int kEpochs = 200;
    std::vector<std::uint64_t> cells(kJobs, 0);
    std::vector<std::function<void()>> jobs;
    for (std::size_t i = 0; i < kJobs; ++i)
        jobs.push_back([&cells, i] { cells[i] += i + 1; });
    for (int epoch = 1; epoch <= kEpochs; ++epoch) {
        pool.run(jobs);
        const std::uint64_t sum =
            std::accumulate(cells.begin(), cells.end(),
                            std::uint64_t{0});
        ASSERT_EQ(sum, static_cast<std::uint64_t>(epoch) * kJobs *
                           (kJobs + 1) / 2)
            << "epoch " << epoch;
    }
}

TEST(EpochPool, ReusesWorkersAcrossHeterogeneousEpochs)
{
    // Batches of varying size, including empty and single-job ones
    // (the inline path), against the same parked workers. A worker
    // oversleeping an epoch must not claim from a later batch.
    EpochPool pool(3);
    std::atomic<int> counter{0};
    for (int epoch = 0; epoch < 100; ++epoch) {
        const std::size_t size = epoch % 7;
        std::vector<std::function<void()>> jobs(
            size, [&counter] {
                counter.fetch_add(1, std::memory_order_relaxed);
            });
        pool.run(jobs);
    }
    int expected = 0;
    for (int epoch = 0; epoch < 100; ++epoch)
        expected += epoch % 7;
    EXPECT_EQ(counter.load(), expected);
}

TEST(EpochPool, SurvivesMidBarrierCrash)
{
    // The cluster's crash handling calls Engine::killAllTasks at an
    // epoch barrier — between pool.run calls, while the workers are
    // parked. The pool must keep scheduling the same job list, the
    // crashed engine's clock must stay in lockstep with its peers
    // (engines step while down; they are never recreated), and the
    // engine must accept new work after the restart.
    using litmus::sim::Engine;
    using litmus::workload::PhaseProgram;
    using litmus::workload::ProgramTask;

    auto machine = litmus::sim::MachineCatalog::get("cascade-5218");
    machine.cores = 4;
    Engine a(machine);
    Engine b(machine);

    const auto task = [] {
        litmus::workload::Phase p;
        p.name = "p";
        p.instructions = 5e6;
        p.demand.cpi0 = 1.0;
        p.demand.l2Mpki = 5.0;
        p.demand.l3WorkingSet = 1 << 20;
        p.demand.l3MissBase = 0.2;
        p.demand.mlp = 4.0;
        return std::make_unique<ProgramTask>("t", PhaseProgram({p}));
    };
    a.add(task());
    b.add(task());

    EpochPool pool(2);
    const double epoch = 1e-3;
    std::vector<std::function<void()>> jobs = {
        [&a, epoch] { a.run(epoch); },
        [&b, epoch] { b.run(epoch); }};
    pool.run(jobs);

    // Crash engine A at the barrier: its task dies mid-flight with
    // partial counters; no completion callback fires.
    const auto corpses = a.killAllTasks();
    ASSERT_EQ(corpses.size(), 1u);
    EXPECT_GT(corpses[0]->counters().cycles, 0.0);
    EXPECT_EQ(a.taskCount(), 0u);

    // The pool keeps running both engines; the idle (down) engine's
    // clock advances in lockstep with the busy one.
    pool.run(jobs);
    EXPECT_DOUBLE_EQ(a.now(), b.now());

    // Restart: the crashed engine accepts new work and both engines
    // drain under the pool.
    a.add(task());
    for (int i = 0; i < 1000 && (a.taskCount() || b.taskCount()); ++i)
        pool.run(jobs);
    EXPECT_EQ(a.taskCount(), 0u);
    EXPECT_EQ(b.taskCount(), 0u);
    EXPECT_DOUBLE_EQ(a.now(), b.now());
}

} // namespace
