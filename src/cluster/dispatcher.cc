#include "cluster/dispatcher.h"

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

/** Least live tasks among dispatchable machines; ties go to the
 *  lowest machine index. */
unsigned
leastLoadedIndex(const std::vector<MachineSnapshot> &machines)
{
    unsigned best = 0;
    unsigned bestLoad = std::numeric_limits<unsigned>::max();
    bool found = false;
    for (const MachineSnapshot &m : machines) {
        if (!m.dispatchable)
            continue;
        if (m.liveTasks < bestLoad) {
            bestLoad = m.liveTasks;
            best = m.index;
            found = true;
        }
    }
    if (!found)
        fatal("dispatcher: no dispatchable machine (the cluster must "
              "hold arrivals while the whole fleet is down or blind)");
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
        fatal("dispatcher: no dispatchable machine (the cluster must "
              "hold arrivals while the whole fleet is down or blind)");
    }

  private:
    std::uint64_t next_ = 0;
};

class LeastLoadedDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::LeastLoaded;
    }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        return leastLoadedIndex(machines);
    }
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
        return found ? best : leastLoadedIndex(machines);
    }
};

class CostAwareDispatcher final : public Dispatcher
{
  public:
    DispatchPolicy policy() const override
    {
        return DispatchPolicy::CostAware;
    }

    unsigned pick(const Invocation &,
                  const std::vector<MachineSnapshot> &machines) override
    {
        // Cheapest predicted completion wins: a slower machine with
        // idle cores beats a faster one whose cores already
        // time-share. Strict < keeps ties on the lowest index, so
        // routing is deterministic.
        unsigned best = 0;
        double bestCost = std::numeric_limits<double>::infinity();
        bool found = false;
        for (const MachineSnapshot &m : machines) {
            if (!m.dispatchable)
                continue;
            const double cost = m.predictedCost();
            if (cost < bestCost) {
                bestCost = cost;
                best = m.index;
                found = true;
            }
        }
        if (!found)
            fatal("dispatcher: no dispatchable machine (the cluster "
                  "must hold arrivals while the whole fleet is down "
                  "or blind)");
        return best;
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
        return std::make_unique<LeastLoadedDispatcher>();
    case DispatchPolicy::WarmthAware:
        return std::make_unique<WarmthAwareDispatcher>();
    case DispatchPolicy::CostAware:
        return std::make_unique<CostAwareDispatcher>();
    }
    fatal("makeDispatcher: unknown policy");
}

} // namespace litmus::cluster
