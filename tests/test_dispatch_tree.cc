/**
 * @file
 * Differential tests for DispatchTree: after every snapshot change the
 * tree's pick must equal the reference scan (Dispatcher::pick) of the
 * least-loaded and cost-aware policies, ties and +inf ranks included.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "cluster/dispatcher.h"
#include "common/rng.h"

namespace litmus::cluster
{
namespace
{

constexpr DispatchPolicy kTreePolicies[] = {DispatchPolicy::LeastLoaded,
                                            DispatchPolicy::CostAware};

/** A mixed fleet of @p n machines: two core counts, three clocks. */
std::vector<MachineSnapshot>
mixedFleet(unsigned n)
{
    std::vector<MachineSnapshot> fleet(n);
    for (unsigned i = 0; i < n; ++i) {
        fleet[i].index = i;
        fleet[i].cores = i % 2 == 0 ? 2 : 4;
        fleet[i].baseFrequency = 2.0e9 + 0.5e9 * (i % 3);
    }
    return fleet;
}

/** A fleet, its tree and the reference scan, updated in step. */
struct Harness
{
    DispatchPolicy policy;
    std::vector<MachineSnapshot> fleet;
    DispatchTree tree{policy, fleet};
    std::unique_ptr<Dispatcher> scan = makeDispatcher(policy);

    void update(unsigned i) { tree.update(fleet[i]); }

    bool anyRoutable() const
    {
        for (const MachineSnapshot &m : fleet)
            if (dispatchRank(policy, m) <
                std::numeric_limits<double>::infinity())
                return true;
        return false;
    }

    /** The tree agrees with the scan; @p step names the update. */
    void check(int step) const
    {
        if (!anyRoutable())
            return;
        ASSERT_EQ(tree.pick(), scan->pick(Invocation{}, fleet))
            << nameOf(kDispatchPolicies, policy) << ", "
            << fleet.size() << " machines, after update " << step;
    }
};

/** One random snapshot change (or a fleet-wide one) per step. */
void
randomWalk(Harness &h, std::uint64_t seed, int steps)
{
    Rng rng(seed);
    const auto n = static_cast<unsigned>(h.fleet.size());
    for (int step = 0; step < steps; ++step) {
        const auto i = static_cast<unsigned>(rng.below(n));
        MachineSnapshot &m = h.fleet[i];
        switch (rng.below(8)) {
        case 0:
        case 1: // a dispatch: one more live task
            ++m.liveTasks;
            h.update(i);
            break;
        case 2:
        case 3: // a completion
            m.liveTasks -= m.liveTasks > 0 ? 1 : 0;
            h.update(i);
            break;
        case 4: // a crash or restart, a blindness window
            m.dispatchable = !m.dispatchable;
            h.update(i);
            break;
        case 5: // a slowdown window opens or closes
            m.speedFactor = m.speedFactor < 1.0 ? 1.0 : 0.5;
            h.update(i);
            break;
        case 6: // a harvest that changed nothing
            h.update(i);
            break;
        default:
            if (rng.chance(0.5)) {
                // Every machine but i goes down, then comes back.
                for (unsigned j = 0; j < n; ++j) {
                    h.fleet[j].dispatchable = j == i;
                    h.update(j);
                }
                h.check(step);
                for (unsigned j = 0; j < n; ++j) {
                    h.fleet[j].dispatchable = true;
                    h.update(j);
                }
            } else {
                // Equal loads everywhere: every pick is a tie.
                const auto load = static_cast<unsigned>(rng.below(3));
                for (unsigned j = 0; j < n; ++j) {
                    h.fleet[j].liveTasks = load;
                    h.update(j);
                }
            }
        }
        h.check(step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(DispatchTree, MatchesTheScanOnRandomUpdates)
{
    for (const unsigned n : {1u, 2u, 3u, 7u, 1000u, 1024u}) {
        for (const DispatchPolicy policy : kTreePolicies) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                Harness h{policy, mixedFleet(n)};
                h.check(-1);
                randomWalk(h, seed * 7919 + n, n < 100 ? 4000 : 1500);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(DispatchTree, EqualRanksGoToTheLowestIndex)
{
    for (const unsigned n : {2u, 3u, 7u, 1024u}) {
        for (const DispatchPolicy policy : kTreePolicies) {
            std::vector<MachineSnapshot> fleet(n);
            for (unsigned i = 0; i < n; ++i)
                fleet[i].index = i;
            Harness h{policy, fleet};
            EXPECT_EQ(h.tree.pick(), 0u);
            // Load the front machines one by one: the pick walks up.
            for (unsigned i = 0; i + 1 < n; ++i) {
                h.fleet[i].liveTasks = 1;
                h.update(i);
                EXPECT_EQ(h.tree.pick(), i + 1);
                h.check(static_cast<int>(i));
            }
        }
    }
}

TEST(DispatchTree, SkipsUnroutableMachines)
{
    // A dispatchable machine whose predicted cost is +inf (a clock
    // of one subnormal hertz) is never chosen, by tree or scan.
    Harness h{DispatchPolicy::CostAware, mixedFleet(3)};
    h.fleet[0].baseFrequency = 4.9e-324;
    h.fleet[2].liveTasks = 9;
    h.update(0);
    h.update(2);
    EXPECT_EQ(h.tree.pick(), 1u);
    h.check(0);
    h.fleet[1].dispatchable = false;
    h.update(1);
    EXPECT_EQ(h.tree.pick(), 2u);
    h.check(1);
}

TEST(DispatchTreeDeath, NoRoutableMachineIsFatal)
{
    // All down, or the one dispatchable machine at +inf cost: the
    // tree fails like the scan.
    const char *message = "no dispatchable machine";
    for (const DispatchPolicy policy : kTreePolicies) {
        Harness h{policy, mixedFleet(5)};
        for (unsigned i = 0; i < 5; ++i) {
            h.fleet[i].dispatchable = false;
            h.update(i);
        }
        EXPECT_DEATH((void)h.tree.pick(), message);
        EXPECT_DEATH((void)h.scan->pick(Invocation{}, h.fleet), message);
    }
    Harness h{DispatchPolicy::CostAware, mixedFleet(2)};
    h.fleet[0].dispatchable = false;
    h.fleet[1].baseFrequency = 4.9e-324;
    h.update(0);
    h.update(1);
    EXPECT_DEATH((void)h.tree.pick(), message);
    EXPECT_DEATH((void)h.scan->pick(Invocation{}, h.fleet), message);
}

} // namespace
} // namespace litmus::cluster
