/**
 * @file
 * Fleet dispatch policies: routing one arrival to one machine.
 *
 * The cluster presents each dispatcher with a snapshot of every
 * machine (live tasks, committed memory, warm-container inventory)
 * that equals a fresh view at the current dispatch epoch's barrier,
 * so decisions are deterministic regardless of how many worker
 * threads advance the engines between barriers.
 *
 * Four policies ship:
 *  - RoundRobin:   rotate through machines, ignoring state;
 *  - LeastLoaded:  fewest live tasks wins (ties to the lowest index);
 *  - WarmthAware:  prefer machines holding an idle warm container for
 *    the function (skipping its language startup entirely), falling
 *    back to least-loaded when everyone is cold;
 *  - CostAware:    heterogeneous fleets — estimate the invocation's
 *    relative completion time on every machine from its clock speed
 *    and core oversubscription, so a fast-but-crowded Cascade Lake
 *    loses to an idle Ice Lake exactly when the predicted slowdown
 *    says it should.
 *
 * Pick cost on n machines: a DispatchTree serves LeastLoaded and
 * CostAware in an O(1) read plus O(log n) per snapshot refresh (their
 * pick() is the O(n) reference scan); WarmthAware scans in O(n);
 * RoundRobin is O(1) while no machine is down or blind.
 */

#ifndef LITMUS_CLUSTER_DISPATCHER_H
#define LITMUS_CLUSTER_DISPATCHER_H

#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/name_table.h"
#include "workload/function_model.h"

namespace litmus::cluster
{

/** The routing policies the fleet layer supports. */
enum class DispatchPolicy
{
    RoundRobin,
    LeastLoaded,
    WarmthAware,
    CostAware,
};

/** The policies' spellings; the first per policy is its name. */
inline constexpr Spelling<DispatchPolicy> kDispatchPolicies[] = {
    {DispatchPolicy::RoundRobin, "round-robin"},
    {DispatchPolicy::RoundRobin, "roundrobin"},
    {DispatchPolicy::RoundRobin, "rr"},
    {DispatchPolicy::LeastLoaded, "least-loaded"},
    {DispatchPolicy::LeastLoaded, "leastloaded"},
    {DispatchPolicy::LeastLoaded, "ll"},
    {DispatchPolicy::WarmthAware, "warmth-aware"},
    {DispatchPolicy::WarmthAware, "warmth"},
    {DispatchPolicy::CostAware, "cost-aware"},
    {DispatchPolicy::CostAware, "cost"},
};

/** One fleet arrival awaiting dispatch. */
struct Invocation
{
    const workload::FunctionSpec *spec = nullptr;

    /** Arrival timestamp in fleet simulated time. */
    Seconds arrival = 0;

    /** Arrival sequence number (stable tie-breaking / tracing). */
    std::uint64_t seq = 0;

    /** Dispatch attempts already made (fault retries; 0 = fresh). */
    unsigned attempt = 0;
};

/**
 * Dispatcher view of one machine at a dispatch barrier.
 *
 * The cluster maintains one snapshot per machine across barriers,
 * refreshing only the machines a dispatch, a harvest or a fault
 * touched, so at every barrier each snapshot equals a fresh view of
 * its machine (the exactQuantum oracle checks this field by field).
 * The warm-container inventory is borrowed from the cluster (idle
 * containers per function name, each entry a keep-alive expiry time);
 * snapshots are only valid during the pick() call.
 */
struct MachineSnapshot
{
    unsigned index = 0;

    /** Machine type (catalog name) — heterogeneous fleets route on
     *  it. Borrowed from the cluster; valid during pick(). */
    std::string_view type;

    /** Physical cores (oversubscription denominator). */
    unsigned cores = 1;

    /** Nominal clock (Hz); the cost policy's speed axis. */
    double baseFrequency = 1.0;

    /** False while the machine is down (crashed, not yet restarted)
     *  or the dispatcher is blind to it — no policy may route there.
     *  The cluster only calls pick() when at least one machine is
     *  dispatchable. */
    bool dispatchable = true;

    /** Current effective-speed multiplier (1 = nominal; <1 inside a
     *  slowdown window). The cost policy folds it into the clock. */
    double speedFactor = 1.0;

    /** Live (queued or running) tasks on the machine. */
    unsigned liveTasks = 0;

    /** Memory committed to live invocations. */
    Bytes committedMemory = 0;

    /** The machine's main-memory capacity. */
    Bytes memoryCapacity = 0;

    /** Idle warm containers: function name -> keep-alive expiries. */
    // LITMUS-LINT-ALLOW(unordered-decl): dispatchers only find() by function name (warmIdleFor); no policy iterates the map, so dispatch decisions are order-independent
    const std::unordered_map<std::string, std::deque<Seconds>>
        *warmIdle = nullptr;

    /** Idle warm containers available for the named function. */
    std::size_t warmIdleFor(const std::string &function) const;

    /** True when the machine can admit the given footprint. */
    bool fits(Bytes footprint) const
    {
        return committedMemory + footprint <= memoryCapacity;
    }

    /**
     * Predicted relative completion time of one more task here: the
     * core-oversubscription slowdown (time-sharing beyond one task
     * per core) divided by the clock. Lower is faster; the number is
     * only meaningful relative to other machines' costs.
     */
    double predictedCost() const
    {
        const double occupancy =
            (liveTasks + 1.0) / (cores > 0 ? cores : 1u);
        const double slowdown = occupancy > 1.0 ? occupancy : 1.0;
        const double clock =
            (baseFrequency > 0 ? baseFrequency : 1.0) *
            (speedFactor > 0 ? speedFactor : 1.0);
        return slowdown / clock;
    }
};

/** Routing strategy interface. */
class Dispatcher
{
  public:
    virtual ~Dispatcher() = default;

    virtual DispatchPolicy policy() const = 0;

    /**
     * Choose the machine index for one invocation. @p machines is
     * never empty and always contains at least one dispatchable
     * machine; implementations must return the index of a
     * dispatchable one.
     */
    virtual unsigned pick(const Invocation &inv,
                          const std::vector<MachineSnapshot> &machines) = 0;
};

/** Factory for the built-in policies. */
std::unique_ptr<Dispatcher> makeDispatcher(DispatchPolicy policy);

/**
 * What the least-loaded and cost-aware picks minimise, ties to the
 * lowest index: live tasks, or predictedCost() (a slower machine with
 * idle cores beats a faster one whose cores time-share). +inf, which
 * no pick routes to, when @p m is not dispatchable or the rank is NaN.
 */
double dispatchRank(DispatchPolicy policy, const MachineSnapshot &m);

/**
 * The least-loaded or cost-aware pick, kept current: an array-backed
 * tournament (min) tree whose leaves hold (dispatchRank, index), so
 * its root is the machine the reference scan picks.
 */
class DispatchTree
{
  public:
    static bool serves(DispatchPolicy policy)
    {
        return policy == DispatchPolicy::LeastLoaded ||
               policy == DispatchPolicy::CostAware;
    }

    /** Build over @p machines, whose indices are their positions. */
    DispatchTree(DispatchPolicy policy,
                 const std::vector<MachineSnapshot> &machines);

    /** Re-rank @p m's leaf in O(log n). */
    void update(const MachineSnapshot &m);

    /** The root's machine; fatal() when every machine ranks +inf. */
    unsigned pick() const;

  private:
    using Entry = std::pair<double, unsigned>;

    DispatchPolicy policy_;
    std::size_t leaves_;
    /** Node i's children are 2i and 2i + 1; the root is node 1. */
    std::vector<Entry> nodes_;
};

} // namespace litmus::cluster

#endif // LITMUS_CLUSTER_DISPATCHER_H
