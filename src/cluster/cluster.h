/**
 * @file
 * Fleet-scale serving layer: N simulated machines behind one dispatcher.
 *
 * The Litmus paper prices invocations on a single co-located server;
 * production platforms serve the same traffic from fleets. A Cluster
 * owns one sim::Engine per machine, pulls an open-loop arrival stream
 * lazily from its TrafficSource at fleet
 * rates — memory stays O(stream lookahead), so day-long traces over
 * millions of invocations never materialize — routes every arrival
 * through a pluggable Dispatcher, and aggregates per-machine billing
 * into one fleet revenue/discount report.
 *
 * Execution advances between dispatch barriers on the epoch grid:
 * busy engines run on a worker pool (one job per machine, barrier at
 * the end — engines are independent between dispatch decisions, so
 * wall-clock scales with cores), completions are folded back into
 * warm pools and ledgers in (barrier, machine) order, and then the
 * cluster (single-threaded) routes the arrivals that came due, using
 * machine snapshots that equal a fresh view at the barrier — an
 * invocation starts at the first epoch boundary at or after its
 * arrival, never early. Each batch advances the fleet clock straight
 * to the first barrier covering the earliest pending event (arrival,
 * retry, fault or keep-alive expiry), and steps only engines with
 * live work: idle machines are never stepped at all, and a busy
 * engine that drains mid-batch elides the idle tail up to the barrier
 * (Engine::runToTick). `exactQuantum` marches every grid barrier with
 * every machine stepped and serves as the differential oracle. All
 * cross-thread state is barrier-local, so a fixed seed gives
 * bit-identical fleet totals at any thread count in either mode.
 *
 * Barrier bookkeeping follows activity, not fleet size. Three pieces
 * of state persist across barriers: the busy set (machines that may
 * hold live tasks, in index order), a keep-alive min-heap of
 * (expiry, machine), and the dispatcher snapshots, refreshed only for
 * machines a dispatch, a harvest or a fault touched. A barrier costs
 * O(machines touched) apart from the dispatch policy's own pick.
 *
 * Warm containers: every completed invocation leaves one idle warm
 * container behind (keep-alive bounded). A dispatch that finds one
 * skips the language startup — the dominant cold-start cost — which
 * is what the warmth-aware policy exploits.
 */

#ifndef LITMUS_CLUSTER_CLUSTER_H
#define LITMUS_CLUSTER_CLUSTER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/dispatcher.h"
#include "cluster/fault_plan.h"
#include "cluster/traffic_source.h"
#include "core/billing.h"
#include "core/discount_model.h"
#include "sim/engine.h"
#include "workload/suite.h"

namespace litmus::cluster
{

/** One homogeneous slice of a (possibly mixed) fleet. */
struct MachineGroup
{
    /** Machine type: a MachineCatalog name. */
    std::string machine;

    /** Machines of this type. */
    unsigned count = 1;
};

/** Fleet configuration. */
struct ClusterConfig
{
    /**
     * The fleet, as machine-type groups resolved through
     * MachineCatalog — {"cascade-5218", 8}, {"icelake-4314", 8} is
     * the paper's two testbeds serving side by side. Machines are
     * indexed group by group in spec order.
     */
    std::vector<MachineGroup> fleet = {{"cascade-5218", 4}};

    /** Routing policy. */
    DispatchPolicy policy = DispatchPolicy::RoundRobin;

    /** @name Open-loop fleet traffic @{ */
    /**
     * The arrival process (required; scenario models all implement
     * the TrafficSource interface, e.g. a `poisson` model for classic
     * open-loop load). Borrowed; must outlive the cluster.
     */
    const TrafficSource *traffic = nullptr;

    /** Sampling pool (the whole Table 1 suite by default; an
     *  explicitly empty pool is a validate() error). */
    std::vector<const workload::FunctionSpec *> functionPool =
        workload::allFunctions();

    /** Seed for the arrival trace and per-invocation jitter. */
    std::uint64_t seed = 1;
    /** @} */

    /** @name Serving model @{ */
    /** Dispatch epoch: barrier period between routing decisions. */
    Seconds epoch = 1e-3;

    /** Warm-container keep-alive after an invocation completes. */
    Seconds keepAlive = 10.0;

    /** Attach Litmus probes to cold invocations. */
    bool probes = false;

    /**
     * Worker threads driving the engines (0 = one per machine, capped
     * by the host's hardware concurrency; 1 = fully serial). Totals
     * are identical at every setting.
     */
    unsigned threads = 0;

    /**
     * The differential oracle: one epoch per barrier, every machine
     * stepped every quantum (never an elided idle quantum), engine
     * fast-forward off. Fleet totals are bit-identical either way;
     * exact mode exists for tests, differential benches and baseline
     * timing, and is not exposed as a scenario key or CLI flag.
     */
    bool exactQuantum = false;

    /**
     * Simulated seconds the fleet may keep running past the last
     * arrival; fatal() if it fails to drain by then. Relative to the
     * trace end, so long traces (low rates, millions of invocations)
     * never trip it while arrivals are still due.
     */
    Seconds drainCap = 600.0;
    /** @} */

    /** @name Fleet billing @{ */
    /**
     * Optional calibrated discount models, one per machine type
     * (keyed by catalog name): cold invocations carrying a completed
     * Litmus probe are charged the Litmus price; warm and unprobed
     * invocations — and machines of a type with no model — pay the
     * commercial price. Each model's profile must match its machine
     * type (fatal() otherwise). Borrowed; must outlive the cluster.
     */
    std::map<std::string, const pricing::DiscountModel *>
        discountModels;

    /** Method 1 sharing factor for Litmus quotes. */
    double sharingFactor = 1.0;

    pricing::BillingConfig billing;
    /** @} */

    /** @name Fault injection @{ */
    /**
     * Declarative fault campaign (crashes, slowdown windows,
     * dispatcher blindness) compiled into a deterministic schedule at
     * run(); the default spec disables every fault source and the
     * fault machinery adds nothing to the serving loop. Faults are
     * applied at epoch barriers — the same granularity as dispatch —
     * so fleet totals stay bit-identical at any thread count.
     */
    FaultSpec faults;
    /** @} */

    /** Total machines across all groups. */
    unsigned totalMachines() const;

    void validate() const;
};

/** Per-machine slice of the fleet report. */
struct MachineReport
{
    unsigned index = 0;

    /** Machine type (catalog name). */
    std::string type;

    std::uint64_t dispatched = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmStarts = 0;
    std::uint64_t completions = 0;

    /** Billed on-CPU seconds (sum over the machine's ledger). */
    Seconds billedCpuSeconds = 0;

    /** Charges in USD. */
    double commercialUsd = 0;
    double litmusUsd = 0;

    /** Mean dispatch-to-completion latency (seconds). */
    double meanLatency = 0;

    /** Quanta the machine covered on the canonical fleet grid:
     *  executed plus idle-elided (event core). Identical across
     *  serving modes and thread counts. */
    double quanta = 0;

    /** @name Failure accounting (fault injection) @{ */
    /** Crashes this machine suffered. */
    std::uint64_t crashes = 0;

    /** In-flight invocations killed by those crashes. */
    std::uint64_t killedInvocations = 0;

    /** On-CPU seconds destroyed by crashes (work lost, regardless of
     *  who paid for it). */
    Seconds lostCpuSeconds = 0;

    /** Lost seconds the provider absorbed (never billed); 0 under
     *  tenant-pays billing. */
    Seconds absorbedCpuSeconds = 0;

    /** Commercial value of the absorbed work (USD). */
    double absorbedUsd = 0;
    /** @} */
};

/** Per-machine-type slice of the fleet report (revenue/discount
 *  breakdown for heterogeneous fleets). */
struct TypeReport
{
    /** Machine type (catalog name). */
    std::string type;

    /** Machines of this type in the fleet. */
    unsigned machines = 0;

    std::uint64_t dispatched = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmStarts = 0;
    std::uint64_t completions = 0;

    Seconds billedCpuSeconds = 0;
    double commercialUsd = 0;
    double litmusUsd = 0;

    /** @name Failure accounting (fault injection) @{ */
    std::uint64_t crashes = 0;
    std::uint64_t killedInvocations = 0;
    Seconds lostCpuSeconds = 0;
    Seconds absorbedCpuSeconds = 0;
    double absorbedUsd = 0;
    /** @} */

    /** Type discount (1 - litmus/commercial revenue). */
    double discount() const
    {
        return commercialUsd > 0 ? 1.0 - litmusUsd / commercialUsd : 0.0;
    }
};

/**
 * Scheduler observability: what the serving loop actually did. Both
 * modes fill the shared-path counters (arrival/retry/fault/
 * keep-alive events flow through the same dispatch/harvest code);
 * idle-skip and barrier-elision are where the event core's win shows.
 * Never part of the bit-identity contract — the exact oracle takes
 * every barrier by design — so identicalTotals() ignores this.
 */
struct SchedulerCounters
{
    /** @name Events processed, by class @{ */
    std::uint64_t eventsFault = 0;     ///< fault transitions applied
    std::uint64_t eventsArrival = 0;   ///< trace arrivals dispatched
    std::uint64_t eventsRetry = 0;     ///< retries re-dispatched
    std::uint64_t eventsKeepAlive = 0; ///< keep-alive expiry sweeps
    std::uint64_t eventsProgress = 0;  ///< barriers with live work
    /** @} */

    /** Idle quanta elided across all engines (never stepped): whole
     *  idle stretches plus the tail of a batch after a busy engine
     *  drains. */
    std::uint64_t idleQuantaSkipped = 0;

    /** Dispatch/harvest barriers the loop actually took. */
    std::uint64_t barriers = 0;

    /** Epoch-grid barriers skipped (grid barriers minus taken). */
    std::uint64_t barriersElided = 0;

    /** Machines visited by per-barrier bookkeeping: batch jobs,
     *  harvest folds, snapshot refreshes and keep-alive sweeps. Under
     *  the event core it follows the busy machines, not the fleet
     *  size; the oracle's batches visit every machine. */
    std::uint64_t barrierMachineVisits = 0;
};

/**
 * Arrival-flow observability: what the traffic stream produced and
 * what it cost to hold. `bufferedMax` is the stream's peak resident
 * arrival count — 1 for native streaming models, the whole trace
 * through an UpfrontTraffic replay — which is the number fig26's
 * memory claim rests on. Like SchedulerCounters, never part of the
 * bit-identity contract (streaming and upfront buffer differently by
 * design), so identicalTotals() ignores this.
 */
struct ArrivalCounters
{
    /** Producing traffic model ("poisson", "trace", "azure", ...). */
    std::string model;

    /** Arrivals the model produced (includes a peeked head). */
    std::uint64_t generated = 0;

    /** Arrivals the serving loop consumed. */
    std::uint64_t pulled = 0;

    /** Peak arrivals resident in the stream at once. */
    std::uint64_t bufferedMax = 0;
};

/** Fleet-wide aggregation. */
struct FleetReport
{
    std::vector<MachineReport> machines;

    /** Serving-loop observability (excluded from identicalTotals). */
    SchedulerCounters sched;

    /** Arrival-flow observability (excluded from identicalTotals). */
    ArrivalCounters arrivalFlow;

    /** Per-machine-type breakdown, in fleet-spec order. Sums match
     *  the per-machine reports exactly (same accumulation order). */
    std::vector<TypeReport> types;

    std::uint64_t arrivals = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t rejectedMemory = 0;
    std::uint64_t completions = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmStarts = 0;

    /**
     * Fleet billed on-CPU seconds, accumulated independently of the
     * per-machine ledgers (conservation: equals the sum over machines
     * up to floating-point association).
     */
    Seconds billedCpuSeconds = 0;

    /** Fleet charges in USD. */
    double commercialUsd = 0;
    double litmusUsd = 0;

    /** Mean dispatch-to-completion latency across the fleet. */
    double meanLatency = 0;

    /** Simulated time until the fleet drained. */
    Seconds makespan = 0;

    /** @name Failure accounting (fault injection; all zero without a
     *  fault campaign) @{ */
    /** Machine crashes applied across the fleet. */
    std::uint64_t crashes = 0;

    /** In-flight invocations killed by crashes. */
    std::uint64_t killedInvocations = 0;

    /** Killed invocations re-dispatched by the retry policy. */
    std::uint64_t retries = 0;

    /** Killed invocations the retry policy gave up on. */
    std::uint64_t abandoned = 0;

    /**
     * On-CPU seconds destroyed by crashes. Accumulated independently
     * of the per-machine slices, like billedCpuSeconds.
     */
    Seconds lostCpuSeconds = 0;

    /** Lost seconds the provider absorbed instead of billing. The
     *  conservation invariant through failures: every cycle any
     *  engine retired for an invocation is either billed or absorbed
     *  — billedCpuSeconds + absorbedCpuSeconds covers kept and
     *  destroyed work alike, under either fault-billing mode. */
    Seconds absorbedCpuSeconds = 0;

    /** Commercial value of the absorbed work (USD). */
    double absorbedUsd = 0;
    /** @} */

    /** Aggregate fleet discount (1 - litmus/commercial revenue). */
    double discount() const
    {
        return commercialUsd > 0 ? 1.0 - litmusUsd / commercialUsd : 0.0;
    }

    /** Served throughput in invocations per simulated second. */
    double throughput() const
    {
        return makespan > 0 ? static_cast<double>(completions) / makespan
                            : 0.0;
    }

    /** Cold starts as a fraction of dispatches. */
    double coldStartRate() const
    {
        return dispatched > 0
                   ? static_cast<double>(coldStarts) / dispatched
                   : 0.0;
    }

    /** Sum of per-machine billed seconds (conservation checks). */
    Seconds sumMachineBilledSeconds() const;

    /** Sum of per-machine lost seconds (conservation checks). */
    Seconds sumMachineLostSeconds() const;

    /** Sum of per-machine absorbed seconds (conservation checks). */
    Seconds sumMachineAbsorbedSeconds() const;
};

/**
 * Bit-exact equality of two reports' fleet totals (counts, billed
 * seconds, revenues, makespan) — the determinism-check comparison
 * used by benches and tests. Per-machine/type breakdowns follow from
 * the totals and are not re-compared.
 */
bool identicalTotals(const FleetReport &a, const FleetReport &b);

/**
 * The fleet: engines, dispatcher, traffic, billing.
 *
 * Single-shot: construct, run(), read the report.
 */
class Cluster
{
  public:
    explicit Cluster(ClusterConfig cfg);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    /**
     * Generate the arrival trace, serve it to completion (drain), and
     * return the fleet report. May be called once.
     */
    const FleetReport &run();

    /** The report (valid after run()). */
    const FleetReport &report() const;

    /** One machine's engine (inspection; valid after run()). */
    const sim::Engine &engine(unsigned machine) const;

    /** One machine's billing ledger (valid after run()). */
    const pricing::BillingLedger &ledger(unsigned machine) const;

    const ClusterConfig &config() const { return cfg_; }

  private:
    struct Machine;

    /** Per-run serving state (cluster.cc). */
    struct Serve;

    /** The earliest armed event: what a batch advances to, and what
     *  a clock that can no longer advance reports it is waiting for. */
    struct Pending
    {
        /** "arrival", "retry", "fault" or "keep-alive"; nullptr when
         *  nothing is armed. */
        const char *kind = nullptr;
        Seconds time = 0;
    };

    /**
     * Serve the trace in event batches (every grid barrier with every
     * machine stepped under exactQuantum); returns the final fleet
     * clock (makespan).
     */
    Seconds serveEvent(Serve &s);

    /** True while any engine owns a live task (scans the busy set,
     *  which holds every such machine). */
    bool anyLive() const;

    /** Drop machines with drained engines from the busy set. */
    void pruneBusy();

    /** Add a machine to the busy set, keeping index order. */
    void markBusy(unsigned machine);

    /**
     * Advance the fleet clock by whole epochs to the first barrier at
     * or past @p target (at least one epoch; dueness on the exact
     * accumulated grid) and return the epochs taken: the minimal
     * cover, found by coverRepeated() in O(log epochs). The clock
     * lands on the bits of one fadd per quantum — the accumulation
     * every stepping engine's clock performs, so the two stay
     * bit-identical at equal tick counts. fatal() naming @p pending if
     * the clock cannot move: past ~2^53 quanta one quantum is below
     * half an ulp of it, so no later event could ever come due.
     */
    std::uint64_t advanceClockToCover(Seconds target,
                                      const Pending &pending);

    /** Dispatch every due arrival and retry at the barrier @p now. */
    void dispatchDue(Serve &s, Seconds now);

    /**
     * A fresh dispatcher view of every machine, built from machine
     * state in O(fleet). run() builds snaps_ from it once; afterwards
     * the oracle compares snaps_ against it at every barrier
     * (checkBookkeeping()).
     */
    std::vector<MachineSnapshot> snapshots() const;

    /** Copy @p m's mutable state into its entry of snaps_. */
    void refreshSnapshot(const Machine &m);

    /**
     * The oracle's O(fleet) cross-check of the state kept across
     * barriers; panic() naming the machine and field on the first
     * mismatch. snaps_ must equal a fresh snapshots() field by field
     * and blocked_ its non-dispatchable count; busy_ must be ascending
     * and hold every machine with a live task; every finite
     * nextWarmExpiry must have a matching keep-alive heap entry.
     */
    void checkBookkeeping() const;

    /**
     * Route and launch one arrival against the maintained snapshots;
     * refreshes the chosen machine's entry, so the rest of the batch
     * sees it, and adds the machine to the busy set.
     */
    void dispatch(const Invocation &inv);

    /**
     * Fold buffered completions into warm pools and ledgers, refresh
     * the busy machines' snapshots, then sweep the machines whose
     * keep-alive has lapsed (popped off the keep-alive heap).
     * Completions only happen on busy machines, so the fold visits the
     * busy set: grouped by covering epoch barrier (ascending), machines
     * in index order within a barrier — exactly the order the exact
     * oracle produces one barrier at a time — so the floating-point
     * accumulation order of fleet totals is mode-independent.
     */
    void harvest(Seconds now);

    /** Record @p m's current keep-alive minimum on the heap. */
    void pushWarmExpiry(const Machine &m);

    /** Pop heap entries that no longer equal their machine's
     *  keep-alive minimum off the top. */
    void dropStaleWarmExpiries();

    /** Apply every fault transition due at or before @p now. */
    void applyFaults(Seconds now);

    /** Kill a machine: destroy in-flight work, account the loss,
     *  queue retries, drop warm containers. */
    void crashMachine(Machine &m, Seconds now);

    /** Queue a killed invocation for re-dispatch per the retry
     *  policy (or count it abandoned). */
    void scheduleRetry(const workload::FunctionSpec *spec,
                       std::uint64_t seq, unsigned attempt,
                       Seconds now);

    ClusterConfig cfg_;
    std::unique_ptr<Dispatcher> dispatcher_;
    std::vector<std::unique_ptr<Machine>> machines_;
    Rng rng_;
    FleetReport report_;
    double latencySum_ = 0;
    bool ran_ = false;

    /** @name Canonical fleet clock @{ */
    /**
     * Quanta since t=0 on the fleet grid. Engines step the quanta in
     * which they hold live work and elide the rest via
     * Engine::runToTick — at the barrier a busy engine reaches, or at
     * an idle engine's next dispatch — so every clock lands on
     * fleetClock_ exactly.
     */
    std::uint64_t fleetTick_ = 0;

    /** Simulated time at fleetTick_: the bits of one quantum-fadd per
     *  tick from t=0 (taken in closed form by addRepeated()), so it is
     *  bit-identical to every synced engine's now(). */
    Seconds fleetClock_ = 0;

    /** Epoch length in whole quanta (set by run()). */
    std::uint64_t epochQuanta_ = 0;
    /** @} */

    /** @name Barrier bookkeeping kept across barriers @{ */
    /**
     * Machines that may hold live tasks, ascending by index: every
     * machine with a live task is in it. dispatch() inserts; drained
     * machines drop out at the top of each serving-loop iteration.
     */
    std::vector<unsigned> busy_;

    /** harvest()'s per-busy-machine fold cursors (reused). */
    std::vector<std::size_t> foldCursor_;

    /**
     * (expiry, machine) min-heap with lazy deletion: an entry counts
     * only while it equals the machine's nextWarmExpiry, and every
     * machine with a finite nextWarmExpiry has such an entry. The top
     * valid entry is the fleet's earliest expiry, lowest index first.
     */
    std::vector<std::pair<Seconds, unsigned>> warmHeap_;

    /** Dispatcher snapshots, built once by run() and refreshed per
     *  touched machine; equal to snapshots() at every barrier. */
    std::vector<MachineSnapshot> snaps_;

    /** Machines currently down or blind (not dispatchable). */
    unsigned blocked_ = 0;
    /** @} */

    /** @name Fault state (empty/idle without a fault campaign) @{ */
    /** The compiled schedule; applied through faultCursor_. */
    FaultPlan faultPlan_;
    std::size_t faultCursor_ = 0;

    /** Killed invocations awaiting re-dispatch, sorted by
     *  (due time, seq); Invocation::arrival holds the due time. */
    std::vector<Invocation> retryQueue_;

    /** Latest retry due time ever queued (drain-cap base). */
    Seconds latestRetry_ = 0;
    /** @} */
};

} // namespace litmus::cluster

#endif // LITMUS_CLUSTER_CLUSTER_H
