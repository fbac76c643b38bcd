#include "cluster/dispatcher.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.h"

namespace litmus::cluster
{

std::size_t
MachineSnapshot::warmIdleFor(const std::string &function) const
{
    if (!warmIdle)
        return 0;
    const auto it = warmIdle->find(function);
    return it == warmIdle->end() ? 0 : it->second.size();
}

namespace
{

constexpr double kUnroutable = std::numeric_limits<double>::infinity();

[[noreturn]] void
noDispatchable()
{
    fatal("dispatcher: no dispatchable machine (the cluster must hold "
          "arrivals while the whole fleet is down or blind)");
}

/** The reference scan: the first machine in index order whose rank
 *  is lowest (strict <, so a rank of +inf never wins). */
unsigned
argMinRank(DispatchPolicy policy,
           const std::vector<MachineSnapshot> &machines)
{
    unsigned best = 0;
    double bestRank = kUnroutable;
    for (const MachineSnapshot &m : machines) {
        const double rank = dispatchRank(policy, m);
        if (rank < bestRank) {
            bestRank = rank;
            best = m.index;
        }
    }
    if (!(bestRank < kUnroutable))
        noDispatchable();
    return best;
}

class RoundRobinDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::RoundRobin;
    }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        // Rotate, skipping machines that are down or blind. With the
        // whole fleet dispatchable this degenerates to next_++ % size,
        // so fault-free runs are untouched.
        for (std::size_t tried = 0; tried < machines.size(); ++tried) {
            const auto i =
                static_cast<std::size_t>(next_++ % machines.size());
            if (machines[i].dispatchable)
                return machines[i].index;
        }
        noDispatchable();
    }

  private:
    std::uint64_t next_ = 0;
};

/** LeastLoaded and CostAware: the arg-min of dispatchRank. */
class RankDispatcher final : public Dispatcher
{
  public:
    explicit RankDispatcher(DispatchPolicy policy) : policy_(policy) {}

    DispatchPolicy policy() const override { return policy_; }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        return argMinRank(policy_, machines);
    }

  private:
    DispatchPolicy policy_;
};

class WarmthAwareDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::WarmthAware;
    }

    unsigned pick(const Invocation &inv,
                  const std::vector<MachineSnapshot> &machines) override
    {
        // Among machines holding an idle warm container for this
        // function, take the least loaded; a cold fleet falls back to
        // plain least-loaded placement.
        unsigned best = 0;
        unsigned bestLoad = std::numeric_limits<unsigned>::max();
        bool found = false;
        for (const MachineSnapshot &m : machines) {
            if (!m.dispatchable)
                continue;
            if (m.warmIdleFor(inv.spec->name) == 0)
                continue;
            if (m.liveTasks < bestLoad) {
                bestLoad = m.liveTasks;
                best = m.index;
                found = true;
            }
        }
        return found ? best
                     : argMinRank(DispatchPolicy::LeastLoaded, machines);
    }
};

} // namespace

std::unique_ptr<Dispatcher>
makeDispatcher(DispatchPolicy policy)
{
    switch (policy) {
    case DispatchPolicy::RoundRobin:
        return std::make_unique<RoundRobinDispatcher>();
    case DispatchPolicy::LeastLoaded:
    case DispatchPolicy::CostAware:
        return std::make_unique<RankDispatcher>(policy);
    case DispatchPolicy::WarmthAware:
        return std::make_unique<WarmthAwareDispatcher>();
    }
    fatal("makeDispatcher: unknown policy");
}

double
dispatchRank(DispatchPolicy policy, const MachineSnapshot &m)
{
    const double rank = policy == DispatchPolicy::CostAware
                            ? m.predictedCost()
                            : m.liveTasks;
    return m.dispatchable && rank < kUnroutable ? rank : kUnroutable;
}

DispatchTree::DispatchTree(DispatchPolicy policy,
                           const std::vector<MachineSnapshot> &machines)
    : policy_(policy),
      leaves_(std::bit_ceil(std::max<std::size_t>(machines.size(), 1))),
      nodes_(2 * leaves_,
             Entry{kUnroutable, std::numeric_limits<unsigned>::max()})
{
    for (const MachineSnapshot &m : machines)
        update(m);
}

void
DispatchTree::update(const MachineSnapshot &m)
{
    // Pairs compare lexicographically, so equal ranks go to the lower
    // index as in the scan. Climb while a node's minimum changes:
    // above the first unchanged one nothing can (node 0 is unused).
    Entry best{dispatchRank(policy_, m), m.index};
    for (std::size_t node = leaves_ + m.index;
         node > 0 && nodes_[node] != best; node /= 2) {
        nodes_[node] = best;
        best = std::min(nodes_[node & ~std::size_t{1}], nodes_[node | 1]);
    }
}

unsigned
DispatchTree::pick() const
{
    if (!(nodes_[1].first < kUnroutable))
        noDispatchable();
    return nodes_[1].second;
}

} // namespace litmus::cluster
