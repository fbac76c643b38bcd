#include "cluster/cluster.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>
#include <unordered_map>

#include "cluster/epoch_pool.h"
#include "cluster/event_queue.h"
#include "common/logging.h"
#include "common/repeated_add.h"
#include "core/litmus_probe.h"
#include "sim/machine_catalog.h"
#include "workload/suite.h"

namespace litmus::cluster
{

unsigned
ClusterConfig::totalMachines() const
{
    unsigned total = 0;
    for (const MachineGroup &group : fleet)
        total += group.count;
    return total;
}

void
ClusterConfig::validate() const
{
    if (fleet.empty())
        fatal("ClusterConfig: fleet spec is empty — need at least "
              "one machine group, e.g. {\"cascade-5218\", 4}");
    for (const MachineGroup &group : fleet) {
        if (group.count == 0)
            fatal("ClusterConfig: machine group '", group.machine,
                  "' has zero machines — drop the group or give it a "
                  "positive count");
        // Resolving an unknown name fatal()s with the catalog listing.
        (void)sim::MachineCatalog::get(group.machine);
    }
    // The dispatch epoch is a whole number of quanta and the fleet
    // clock lives on one shared grid, so every machine type in a
    // fleet must agree on the engine quantum (satisfied trivially by
    // homogeneous fleets and the built-in presets).
    const Seconds quantum =
        sim::MachineCatalog::get(fleet.front().machine).quantum;
    for (const MachineGroup &group : fleet) {
        const sim::MachineConfig mc =
            sim::MachineCatalog::get(group.machine);
        if (mc.quantum != quantum) {
            fatal("ClusterConfig: machine types '",
                  fleet.front().machine, "' (quantum ", quantum,
                  " s) and '", group.machine, "' (quantum ",
                  mc.quantum,
                  " s) disagree on the simulation quantum — a fleet "
                  "shares one quantum grid; give every type the same "
                  "quantum_us (or register variants that agree)");
        }
    }
    if (functionPool.empty())
        fatal("ClusterConfig: functionPool is empty — traffic needs "
              "at least one function to sample (the default is "
              "workload::allFunctions())");
    if (!traffic)
        fatal("ClusterConfig: traffic is null — every fleet needs an "
              "arrival process (e.g. a `poisson` scenario model)");
    // Negated comparisons so NaN fails them too.
    if (!(epoch > 0) || !std::isfinite(epoch))
        fatal("ClusterConfig: epoch must be positive and finite, got ",
              epoch);
    if (!(keepAlive >= 0))
        fatal("ClusterConfig: keep-alive must be non-negative, got ",
              keepAlive);
    if (!(drainCap > 0))
        fatal("ClusterConfig: drain cap must be positive, got ",
              drainCap);
    if (!(sharingFactor > 0) || !std::isfinite(sharingFactor))
        fatal("ClusterConfig: sharing factor must be positive and "
              "finite, got ", sharingFactor);
    faults.validate();
}

Seconds
FleetReport::sumMachineBilledSeconds() const
{
    Seconds sum = 0;
    for (const MachineReport &m : machines)
        sum += m.billedCpuSeconds;
    return sum;
}

Seconds
FleetReport::sumMachineLostSeconds() const
{
    Seconds sum = 0;
    for (const MachineReport &m : machines)
        sum += m.lostCpuSeconds;
    return sum;
}

Seconds
FleetReport::sumMachineAbsorbedSeconds() const
{
    Seconds sum = 0;
    for (const MachineReport &m : machines)
        sum += m.absorbedCpuSeconds;
    return sum;
}

bool
identicalTotals(const FleetReport &a, const FleetReport &b)
{
    return a.arrivals == b.arrivals && a.dispatched == b.dispatched &&
           a.rejectedMemory == b.rejectedMemory &&
           a.completions == b.completions &&
           a.coldStarts == b.coldStarts &&
           a.warmStarts == b.warmStarts &&
           a.billedCpuSeconds == b.billedCpuSeconds &&
           a.commercialUsd == b.commercialUsd &&
           a.litmusUsd == b.litmusUsd &&
           a.meanLatency == b.meanLatency && a.makespan == b.makespan &&
           a.crashes == b.crashes &&
           a.killedInvocations == b.killedInvocations &&
           a.retries == b.retries && a.abandoned == b.abandoned &&
           a.lostCpuSeconds == b.lostCpuSeconds &&
           a.absorbedCpuSeconds == b.absorbedCpuSeconds &&
           a.absorbedUsd == b.absorbedUsd;
}

/**
 * One machine's serving state. The engine, the completion buffer, and
 * the live-invocation map are written by the machine's epoch job (one
 * worker thread at a time); everything else is touched only at the
 * single-threaded dispatch/harvest barriers.
 */
struct Cluster::Machine
{
    /** What the fleet remembers about one live invocation. */
    struct Live
    {
        const workload::FunctionSpec *spec = nullptr;
        bool warm = false;

        /** Arrival sequence number (deterministic retry ordering). */
        std::uint64_t seq = 0;

        /** Dispatch attempts already made when this one launched. */
        unsigned attempt = 0;
    };

    /** A completion captured during an epoch, folded in at harvest. */
    struct Completed
    {
        const workload::FunctionSpec *spec = nullptr;
        bool warm = false;
        sim::TaskCounters counters;
        sim::ProbeCapture probe;
        Seconds launchTime = 0;
        Seconds completionTime = 0;

        /** Engine tick (1-based quantum) the completion landed in;
         *  harvest groups folds by its covering epoch barrier. */
        std::uint64_t tick = 0;
    };

    Machine(unsigned idx, sim::MachineConfig machine_config,
            const ClusterConfig &cfg)
        : index(idx), config(std::move(machine_config)),
          engine(config), ledger(cfg.billing)
    {
        engine.onCompletion([this](sim::Task &task) {
            const auto it = live.find(task.id());
            if (it == live.end())
                panic("cluster machine ", index,
                      ": completion for unknown task ", task.id());
            Completed done;
            done.spec = it->second.spec;
            done.warm = it->second.warm;
            done.counters = task.counters();
            done.probe = task.probe();
            done.launchTime = task.launchTime();
            done.completionTime = task.completionTime();
            done.tick = engine.tickCount();
            completed.push_back(std::move(done));
            live.erase(it);
        });
    }

    unsigned index;

    /** The machine's hardware description; config.name is its type. */
    sim::MachineConfig config;

    sim::Engine engine;
    pricing::BillingLedger ledger;

    /** Discount model bound to this machine's type (null = bill
     *  commercially). Borrowed from the config. */
    const pricing::DiscountModel *discountModel = nullptr;

    /** Task id -> invocation bookkeeping (worker-thread local). */
    // LITMUS-LINT-ALLOW(unordered-decl): task-id keyed completion lookup only; completions fold in engine order, never map order
    std::unordered_map<std::uint64_t, Live> live;

    /** Completions buffered during the current epoch. */
    std::vector<Completed> completed;

    /** Idle warm containers: function name -> keep-alive expiries,
     *  oldest first (consumed most-recently-used from the back). */
    // LITMUS-LINT-ALLOW(unordered-decl): find() on dispatch; the only iteration is the expiry sweep in harvest(), an order-independent min+erase fold (audited below)
    std::unordered_map<std::string, std::deque<Seconds>> warmIdle;

    /** Earliest keep-alive expiry across all pools (may be stale-low
     *  after a warm dispatch; sweeps recompute it). The expiry sweep
     *  is skipped entirely until the fleet clock reaches it; every
     *  finite value is mirrored on the cluster's keep-alive heap. */
    Seconds nextWarmExpiry = std::numeric_limits<double>::infinity();

    /** Memory committed to live invocations (admission control). */
    Bytes committedMemory = 0;

    std::uint64_t dispatched = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmStarts = 0;
    std::uint64_t completions = 0;
    double latencySum = 0;

    /** @name Fault lifecycle (barrier-only state) @{ */
    /** Crashed and not yet restarted: no dispatch, no live work. */
    bool down = false;

    /** Inside a dispatcher-blindness window: up and serving, but the
     *  dispatcher cannot route new arrivals here. */
    bool blind = false;

    /** Current slowdown multiplier (mirrors engine.speedFactor()). */
    double speedFactor = 1.0;

    std::uint64_t crashes = 0;
    std::uint64_t killed = 0;
    Seconds lostCpuSeconds = 0;
    Seconds absorbedCpuSeconds = 0;
    double absorbedUsd = 0;
    /** @} */
};

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), rng_(cfg_.seed)
{
    cfg_.validate();
    dispatcher_ = makeDispatcher(cfg_.policy);

    // Fleet groups and discount-model keys may both use catalog
    // aliases; canonical MachineConfig::name is the one identity
    // everything (binding, reports, profiles) agrees on.
    const auto canonical = [](const std::string &name) {
        return sim::MachineCatalog::has(name)
                   ? sim::MachineCatalog::get(name).name
                   : name;
    };
    std::map<std::string, const pricing::DiscountModel *> modelsByType;
    for (const auto &[key, model] : cfg_.discountModels) {
        if (!model)
            continue;
        const std::string type = canonical(key);
        const auto [it, inserted] = modelsByType.emplace(type, model);
        if (!inserted && it->second != model)
            fatal("ClusterConfig: two discount models bound to "
                  "machine type '", type, "' (one under an alias) — "
                  "keep one per type");
    }

    machines_.reserve(cfg_.totalMachines());
    for (const MachineGroup &group : cfg_.fleet) {
        const sim::MachineConfig machine =
            sim::MachineCatalog::get(group.machine);
        // Bind this type's discount model once per group; a profile
        // calibrated on a different generation must not price it.
        const pricing::DiscountModel *model = nullptr;
        const auto it = modelsByType.find(machine.name);
        if (it != modelsByType.end()) {
            it->second->requireMachine(machine.name);
            model = it->second;
        }
        for (unsigned i = 0; i < group.count; ++i) {
            const unsigned index =
                static_cast<unsigned>(machines_.size());
            machines_.push_back(
                std::make_unique<Machine>(index, machine, cfg_));
            machines_.back()->discountModel = model;
            if (cfg_.exactQuantum)
                machines_.back()->engine.setFastForward(false);
        }
    }
    for (const auto &[type, model] : modelsByType) {
        if (!std::any_of(cfg_.fleet.begin(), cfg_.fleet.end(),
                         [&](const MachineGroup &g) {
                             return canonical(g.machine) == type;
                         })) {
            fatal("ClusterConfig: discount model bound to '", type,
                  "', which is not in the fleet spec");
        }
    }
}

Cluster::~Cluster() = default;

const FleetReport &
Cluster::report() const
{
    if (!ran_)
        fatal("Cluster::report: run() has not completed");
    return report_;
}

const sim::Engine &
Cluster::engine(unsigned machine) const
{
    if (machine >= machines_.size())
        fatal("Cluster::engine: no machine ", machine);
    if (!ran_)
        fatal("Cluster::engine: run() has not completed");
    return machines_[machine]->engine;
}

const pricing::BillingLedger &
Cluster::ledger(unsigned machine) const
{
    if (machine >= machines_.size())
        fatal("Cluster::ledger: no machine ", machine);
    if (!ran_)
        fatal("Cluster::ledger: run() has not completed");
    return machines_[machine]->ledger;
}

std::vector<MachineSnapshot>
Cluster::snapshots() const
{
    std::vector<MachineSnapshot> out;
    out.reserve(machines_.size());
    for (const auto &m : machines_) {
        MachineSnapshot snap;
        snap.index = m->index;
        snap.type = m->config.name;
        snap.cores = m->config.cores;
        snap.baseFrequency = m->config.baseFrequency;
        snap.liveTasks = static_cast<unsigned>(m->engine.taskCount());
        snap.committedMemory = m->committedMemory;
        snap.memoryCapacity = m->config.memoryCapacity;
        snap.warmIdle = &m->warmIdle;
        snap.dispatchable = !m->down && !m->blind;
        snap.speedFactor = m->speedFactor;
        out.push_back(snap);
    }
    return out;
}

void
Cluster::refreshSnapshot(const Machine &m)
{
    MachineSnapshot &snap = snaps_[m.index];
    snap.liveTasks = static_cast<unsigned>(m.engine.taskCount());
    snap.committedMemory = m.committedMemory;
    snap.dispatchable = !m.down && !m.blind;
    snap.speedFactor = m.speedFactor;
    ++report_.sched.barrierMachineVisits;
}

void
Cluster::checkBookkeeping() const
{
    const std::vector<MachineSnapshot> fresh = snapshots();
    unsigned blocked = 0;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        const MachineSnapshot &kept = snaps_[i];
        const MachineSnapshot &want = fresh[i];
        const auto stale = [i](const char *field) {
            panic("cluster machine ", i, ": maintained snapshot field '",
                  field, "' differs from a fresh view at the barrier");
        };
        if (kept.index != want.index)
            stale("index");
        if (kept.type != want.type)
            stale("type");
        if (kept.cores != want.cores)
            stale("cores");
        if (kept.baseFrequency != want.baseFrequency)
            stale("baseFrequency");
        if (kept.dispatchable != want.dispatchable)
            stale("dispatchable");
        if (kept.speedFactor != want.speedFactor)
            stale("speedFactor");
        if (kept.liveTasks != want.liveTasks)
            stale("liveTasks");
        if (kept.committedMemory != want.committedMemory)
            stale("committedMemory");
        if (kept.memoryCapacity != want.memoryCapacity)
            stale("memoryCapacity");
        if (kept.warmIdle != want.warmIdle)
            stale("warmIdle");
        if (!want.dispatchable)
            ++blocked;
    }
    if (blocked != blocked_)
        panic("cluster: ", blocked_, " machines counted non-dispatchable, "
              "a fresh view has ", blocked);

    if (std::adjacent_find(busy_.begin(), busy_.end(),
                           std::greater_equal<>{}) != busy_.end())
        panic("cluster: busy set is not in ascending machine order");
    std::vector<bool> warmListed(machines_.size(), false);
    for (const auto &[expiry, index] : warmHeap_)
        if (expiry == machines_[index]->nextWarmExpiry)
            warmListed[index] = true;
    for (const auto &m : machines_) {
        if (m->engine.taskCount() > 0 &&
            !std::binary_search(busy_.begin(), busy_.end(), m->index))
            panic("cluster machine ", m->index,
                  ": holds live tasks but is not in the busy set");
        if (m->nextWarmExpiry < std::numeric_limits<double>::infinity() &&
            !warmListed[m->index])
            panic("cluster machine ", m->index, ": keep-alive expiry ",
                  m->nextWarmExpiry, " has no keep-alive heap entry");
    }
}

void
Cluster::dispatch(const Invocation &inv)
{
    unsigned chosen = dispatcher_->pick(inv, snaps_);
    if (chosen >= machines_.size())
        fatal("dispatcher returned machine ", chosen, " of ",
              machines_.size());

    const Bytes footprint = inv.spec->memoryFootprint;
    if (!snaps_[chosen].fits(footprint)) {
        // Spill to the machine with the most free memory; an overfull
        // fleet rejects the arrival (a platform's 429).
        Bytes bestFree = 0;
        bool found = false;
        for (const MachineSnapshot &snap : snaps_) {
            if (!snap.dispatchable)
                continue;
            const Bytes free =
                snap.memoryCapacity - snap.committedMemory;
            if (snap.fits(footprint) && free > bestFree) {
                bestFree = free;
                chosen = snap.index;
                found = true;
            }
        }
        if (!found) {
            ++report_.rejectedMemory;
            return;
        }
    }

    Machine &m = *machines_[chosen];
    auto warmPool = m.warmIdle.find(inv.spec->name);
    const bool warm =
        warmPool != m.warmIdle.end() && !warmPool->second.empty();

    std::unique_ptr<workload::ProgramTask> task;
    workload::InvocationOptions opts;
    if (warm) {
        // Reuse the most recently parked container (LIFO keeps the
        // oldest entries at the front for expiry sweeps).
        warmPool->second.pop_back();
        if (warmPool->second.empty())
            m.warmIdle.erase(warmPool);
        task = workload::makeWarmInvocation(*inv.spec, rng_, opts);
        ++m.warmStarts;
        ++report_.warmStarts;
    } else {
        opts.withProbe = cfg_.probes;
        task = workload::makeInvocation(*inv.spec, rng_, opts);
        ++m.coldStarts;
        ++report_.coldStarts;
    }

    // An idle machine may lag the fleet grid (the event core never
    // steps idle engines); land it on the canonical clock before the
    // work arrives. No-op when the engine stepped every quantum.
    m.engine.runToTick(fleetTick_, fleetClock_);

    sim::Task &handle = m.engine.add(std::move(task));
    m.live.emplace(handle.id(),
                   Machine::Live{inv.spec, warm, inv.seq, inv.attempt});
    m.committedMemory += footprint;
    ++m.dispatched;
    ++report_.dispatched;
    markBusy(chosen);
    // The rest of the batch picks against the new task and memory.
    refreshSnapshot(m);
}

void
Cluster::pushWarmExpiry(const Machine &m)
{
    warmHeap_.emplace_back(m.nextWarmExpiry, m.index);
    std::push_heap(warmHeap_.begin(), warmHeap_.end(), std::greater<>{});
}

void
Cluster::dropStaleWarmExpiries()
{
    while (!warmHeap_.empty() &&
           warmHeap_.front().first !=
               machines_[warmHeap_.front().second]->nextWarmExpiry) {
        std::pop_heap(warmHeap_.begin(), warmHeap_.end(),
                      std::greater<>{});
        warmHeap_.pop_back();
    }
}

void
Cluster::harvest(Seconds now)
{
    const auto fold = [this](Machine &m, const Machine::Completed &done) {
        // A default estimate (rates of 1) bills commercially; a
        // cold invocation with a completed Litmus probe earns the
        // model's discounted rates.
        pricing::DiscountEstimate estimate;
        if (m.discountModel && !done.warm && done.probe.complete) {
            estimate = m.discountModel->estimate(
                pricing::readProbe(done.probe),
                done.spec->language, cfg_.sharingFactor);
        }
        const pricing::PriceQuote quote =
            pricing::quoteWithEstimate(done.counters, estimate);

        m.ledger.record(workload::languageName(done.spec->language),
                        done.spec->name, done.counters, quote,
                        done.spec->memoryFootprint);

        // Fleet accumulation is independent of the ledgers; the
        // conservation test compares the two.
        report_.billedCpuSeconds +=
            done.counters.cycles / cfg_.billing.billingFrequency;
        ++report_.completions;
        ++m.completions;
        const double latency = done.completionTime - done.launchTime;
        m.latencySum += latency;
        latencySum_ += latency;
        m.committedMemory -= done.spec->memoryFootprint;

        // The container goes idle-warm until its keep-alive ends.
        const Seconds expiry = done.completionTime + cfg_.keepAlive;
        m.warmIdle[done.spec->name].push_back(expiry);
        if (expiry < m.nextWarmExpiry) {
            m.nextWarmExpiry = expiry;
            pushWarmExpiry(m);
        }
    };

    // Fold completions grouped by covering epoch barrier (ascending),
    // machines in index order within a barrier — the order the exact
    // oracle accumulates fleet totals one barrier at a time, so
    // a multi-epoch event batch folds bit-identically. Only machines
    // that ran in the batch complete anything, and the busy set holds
    // them in index order. Each machine's buffer is tick-monotone
    // (capture order), so one cursor per machine suffices; a
    // single-epoch batch has one barrier group and this degenerates
    // to the plain machine-order fold.
    const auto barrierOf = [this](std::uint64_t tick) {
        return (tick + epochQuanta_ - 1) / epochQuanta_;
    };
    foldCursor_.assign(busy_.size(), 0);
    report_.sched.barrierMachineVisits += busy_.size();
    for (;;) {
        std::uint64_t minBarrier =
            std::numeric_limits<std::uint64_t>::max();
        for (std::size_t k = 0; k < busy_.size(); ++k) {
            const auto &completed = machines_[busy_[k]]->completed;
            if (foldCursor_[k] < completed.size())
                minBarrier = std::min(
                    minBarrier, barrierOf(completed[foldCursor_[k]].tick));
        }
        if (minBarrier == std::numeric_limits<std::uint64_t>::max())
            break;
        for (std::size_t k = 0; k < busy_.size(); ++k) {
            Machine &m = *machines_[busy_[k]];
            std::size_t &cursor = foldCursor_[k];
            while (cursor < m.completed.size() &&
                   barrierOf(m.completed[cursor].tick) == minBarrier)
                fold(m, m.completed[cursor++]);
        }
    }
    for (unsigned i : busy_) {
        Machine &m = *machines_[i];
        m.completed.clear();
        refreshSnapshot(m);
    }

    // Expire idle containers whose keep-alive has lapsed, busy or not.
    // Nothing can lapse before a machine's tracked minimum, so only
    // the machines whose heap entry has come due are swept; the rest
    // would be no-ops. A machine is swept at most once: its recomputed
    // minimum lies past now, so later entries for it are stale. The
    // oracle counts the lapsed machines by scanning the fleet.
    const auto lapsed =
        cfg_.exactQuantum
            ? std::count_if(machines_.begin(), machines_.end(),
                            [now](const auto &m) {
                                return now >= m->nextWarmExpiry;
                            })
            : 0;
    const std::uint64_t sweepsBefore = report_.sched.eventsKeepAlive;
    while (!warmHeap_.empty() && warmHeap_.front().first <= now) {
        const auto [expiry, index] = warmHeap_.front();
        std::pop_heap(warmHeap_.begin(), warmHeap_.end(),
                      std::greater<>{});
        warmHeap_.pop_back();
        Machine &m = *machines_[index];
        if (expiry != m.nextWarmExpiry)
            continue;
        ++report_.sched.eventsKeepAlive;
        ++report_.sched.barrierMachineVisits;
        m.nextWarmExpiry = std::numeric_limits<double>::infinity();
        // LITMUS-LINT-ALLOW(unordered-iter): order-independent fold — min() over pool fronts commutes and erasing expired pools is per-key; no report, billing total, or dispatch decision sees the visit order
        for (auto it = m.warmIdle.begin(); it != m.warmIdle.end();) {
            std::deque<Seconds> &pool = it->second;
            while (!pool.empty() && pool.front() <= now)
                pool.pop_front();
            if (pool.empty()) {
                it = m.warmIdle.erase(it);
            } else {
                m.nextWarmExpiry =
                    std::min(m.nextWarmExpiry, pool.front());
                ++it;
            }
        }
        if (m.nextWarmExpiry < std::numeric_limits<double>::infinity())
            pushWarmExpiry(m);
    }
    const std::uint64_t swept = report_.sched.eventsKeepAlive - sweepsBefore;
    if (cfg_.exactQuantum && swept != static_cast<std::uint64_t>(lapsed))
        panic("cluster: keep-alive heap swept ", swept, " machines, ",
              lapsed, " had lapsed");
}

void
Cluster::scheduleRetry(const workload::FunctionSpec *spec,
                       std::uint64_t seq, unsigned attempt, Seconds now)
{
    // `attempt` is the 0-based index of the dispatch the crash just
    // destroyed, so attempt + 1 dispatches have been made in total.
    const FaultSpec &f = cfg_.faults;
    bool retry = false;
    Seconds due = now;
    switch (f.retry) {
    case RetryPolicy::Drop:
        break;
    case RetryPolicy::RetryOnce:
        // One immediate re-dispatch: eligible at this very barrier.
        retry = attempt == 0;
        break;
    case RetryPolicy::RetryBackoff:
        retry = attempt + 1 < f.retryMax;
        due = now + f.retryBackoff *
                        static_cast<double>(std::uint64_t{1} << attempt);
        break;
    }
    if (!retry) {
        ++report_.abandoned;
        return;
    }
    ++report_.retries;

    Invocation inv;
    inv.spec = spec;
    inv.arrival = due;
    inv.seq = seq;
    inv.attempt = attempt + 1;
    latestRetry_ = std::max(latestRetry_, due);
    // Keep the queue sorted by (due, seq): crashes are processed in
    // (event, machine, task) order and due times are monotone per
    // invocation, so the serve order is deterministic.
    const auto pos = std::upper_bound(
        retryQueue_.begin(), retryQueue_.end(), inv,
        [](const Invocation &a, const Invocation &b) {
            if (a.arrival != b.arrival)
                return a.arrival < b.arrival;
            return a.seq < b.seq;
        });
    retryQueue_.insert(pos, inv);
}

void
Cluster::crashMachine(Machine &m, Seconds now)
{
    ++m.crashes;
    ++report_.crashes;
    m.down = true;

    // Kill the in-flight invocations and account for the destroyed
    // work. The corpses come back in task-creation order, so loss
    // accounting and retry queueing are deterministic.
    for (const auto &task : m.engine.killAllTasks()) {
        const auto it = m.live.find(task->id());
        if (it == m.live.end())
            panic("cluster machine ", m.index,
                  ": crash killed unknown task ", task->id());
        const Machine::Live &live = it->second;
        const sim::TaskCounters counters = task->counters();
        const Seconds partial =
            counters.cycles / cfg_.billing.billingFrequency;

        ++m.killed;
        ++report_.killedInvocations;
        m.lostCpuSeconds += partial;
        report_.lostCpuSeconds += partial;

        if (counters.cycles == 0) {
            // Killed before it ever ran (dispatched this barrier, or
            // queued behind busy cores): no work was destroyed and
            // nothing may be billed — a zero-cycle ledger record
            // would divide 0 by 0 normalizing the Litmus price.
        } else if (cfg_.faults.billing == FaultBilling::TenantPays) {
            // Cloud reality: the tenant pays the commercial price for
            // the cycles the dead invocation burned. No probe ever
            // completes on a killed invocation, so there is never a
            // Litmus discount on failure bills.
            const pricing::PriceQuote quote = pricing::quoteWithEstimate(
                counters, pricing::DiscountEstimate{});
            m.ledger.record(
                workload::languageName(live.spec->language),
                live.spec->name, counters, quote,
                live.spec->memoryFootprint);
            report_.billedCpuSeconds += partial;
        } else {
            // The provider eats the loss; mirror the ledger's USD
            // arithmetic exactly so tenant-pays and provider-absorbs
            // split one identical total.
            const double memoryGiB =
                static_cast<double>(live.spec->memoryFootprint) /
                (1024.0 * 1024 * 1024);
            const double usd =
                partial * memoryGiB * cfg_.billing.usdPerGiBSecond;
            m.absorbedCpuSeconds += partial;
            report_.absorbedCpuSeconds += partial;
            m.absorbedUsd += usd;
            report_.absorbedUsd += usd;
        }

        scheduleRetry(live.spec, live.seq, live.attempt, now);
        m.live.erase(it);
    }
    if (!m.live.empty())
        panic("cluster machine ", m.index,
              ": live invocations survived a crash");

    // State loss: committed memory and every warm container are gone,
    // and the expiry tracker resets with them — a fresh minimum is
    // established as post-restart completions park containers. The
    // machine's heap entries no longer match, so they go stale.
    m.committedMemory = 0;
    m.warmIdle.clear();
    m.nextWarmExpiry = std::numeric_limits<double>::infinity();
}

void
Cluster::applyFaults(Seconds now)
{
    const std::vector<FaultEvent> &events = faultPlan_.events();
    while (faultCursor_ < events.size() &&
           events[faultCursor_].at <= now) {
        const FaultEvent &ev = events[faultCursor_++];
        ++report_.sched.eventsFault;
        Machine &m = *machines_[ev.machine];
        const bool wasOpen = !m.down && !m.blind;
        switch (ev.kind) {
        case FaultKind::Crash:
            // Scripted and stochastic windows may overlap on one
            // machine; a crash while already down merges into the
            // open outage (the earliest restart revives it).
            if (!m.down)
                crashMachine(m, now);
            break;
        case FaultKind::Restart:
            m.down = false;
            break;
        case FaultKind::SlowStart:
            m.speedFactor = ev.factor;
            m.engine.setSpeedFactor(ev.factor);
            break;
        case FaultKind::SlowEnd:
            m.speedFactor = 1.0;
            m.engine.setSpeedFactor(1.0);
            break;
        case FaultKind::BlindStart:
            m.blind = true;
            break;
        case FaultKind::BlindEnd:
            m.blind = false;
            break;
        }
        const bool open = !m.down && !m.blind;
        if (wasOpen && !open)
            ++blocked_;
        else if (!wasOpen && open)
            --blocked_;
        refreshSnapshot(m);
    }
}

/** Per-run serving state. */
struct Cluster::Serve
{
    explicit Serve(unsigned threads) : pool(threads) {}

    /** The arrival cursor the loop pulls lazily. */
    std::unique_ptr<ArrivalStream> stream;

    /** The next undispatched arrival (nullptr at end of stream). */
    const Invocation *head() { return stream->peek(); }

    /** @name Drain-cap bases @{ */
    /** Latest arrival *pulled* so far; the peeked head extends the
     *  drain base separately while arrivals remain. */
    Seconds lastArrival = 0;
    Seconds lastFault = 0;
    /** @} */

    /** What one epoch actually advances: epochs that are not a whole
     *  number of quanta round up to the covering quantum, so targets
     *  must be computed against this span, not cfg.epoch. */
    Seconds epochSpan = 0;

    /** Worker pool advancing busy engines between barriers. */
    EpochPool pool;
};

bool
Cluster::anyLive() const
{
    return std::any_of(busy_.begin(), busy_.end(), [this](unsigned i) {
        return machines_[i]->engine.taskCount() > 0;
    });
}

void
Cluster::pruneBusy()
{
    std::erase_if(busy_, [this](unsigned i) {
        return machines_[i]->engine.taskCount() == 0;
    });
}

void
Cluster::markBusy(unsigned machine)
{
    const auto pos = std::lower_bound(busy_.begin(), busy_.end(), machine);
    if (pos == busy_.end() || *pos != machine)
        busy_.insert(pos, machine);
}

void
Cluster::advanceFleetEpochs(std::uint64_t epochs)
{
    const std::uint64_t quanta = epochs * epochQuanta_;
    // The closed form of one fadd per quantum — the accumulation every
    // stepping engine performs — so synced engines land on fleetClock_
    // exactly.
    fleetClock_ = addRepeated(fleetClock_,
                              machines_.front()->engine.quantum(), quanta);
    fleetTick_ += quanta;
}

std::uint64_t
Cluster::advanceClockToCover(Seconds target, Seconds epochSpan)
{
    // Jump to two epochs short of the estimated cover, then walk the
    // last barriers. The accumulated grid is monotone, so a jump that
    // already reaches target would hide the minimal cover: then walk
    // from the start instead.
    std::uint64_t epochs = 0;
    const double gap = (target - fleetClock_) / epochSpan;
    if (gap > 3) {
        const auto jump = static_cast<std::uint64_t>(gap) - 2;
        const Seconds landing =
            addRepeated(fleetClock_, machines_.front()->engine.quantum(),
                        jump * epochQuanta_);
        if (landing < target) {
            fleetClock_ = landing;
            fleetTick_ += jump * epochQuanta_;
            epochs = jump;
        }
    }
    do {
        advanceFleetEpochs(1);
        ++epochs;
    } while (fleetClock_ < target);
    return epochs;
}

void
Cluster::dispatchDue(Serve &s, Seconds now)
{
    // Arrivals are dispatched at the first epoch boundary at or after
    // their arrival time (never early), with warm containers parked
    // by this barrier's completions already visible. Due retries
    // interleave with due arrivals in (time, seq) order — a retry's
    // seq predates every pending arrival's. The maintained snapshots
    // serve the whole batch (dispatch keeps them current); the oracle
    // checks them, the busy set and the keep-alive heap against the
    // machines at every barrier. If no machine is dispatchable,
    // everything due waits for the barrier that reopens the fleet.
    // The stream head is peeked (not pulled) until the batch actually
    // takes it, so a blocked fleet buffers at most one arrival.
    if (cfg_.exactQuantum)
        checkBookkeeping();
    const Invocation *head = s.head();
    const bool anyDue =
        (head != nullptr && head->arrival <= now) ||
        (!retryQueue_.empty() && retryQueue_.front().arrival <= now);
    if (!anyDue)
        return;
    const bool open = blocked_ < machines_.size();
    while (open) {
        head = s.head();
        const bool arrivalDue = head != nullptr && head->arrival <= now;
        const bool retryDue = !retryQueue_.empty() &&
                              retryQueue_.front().arrival <= now;
        if (!arrivalDue && !retryDue)
            break;
        bool takeRetry = retryDue;
        if (arrivalDue && retryDue) {
            const Invocation &r = retryQueue_.front();
            takeRetry = r.arrival < head->arrival ||
                        (r.arrival == head->arrival &&
                         r.seq < head->seq);
        }
        if (takeRetry) {
            const Invocation inv = retryQueue_.front();
            retryQueue_.erase(retryQueue_.begin());
            ++report_.sched.eventsRetry;
            dispatch(inv);
        } else {
            Invocation inv;
            s.stream->next(inv);
            s.lastArrival = inv.arrival;
            ++report_.sched.eventsArrival;
            dispatch(inv);
        }
    }
}

Seconds
Cluster::serveEvent(Serve &s)
{
    const std::vector<FaultEvent> &faultEvents = faultPlan_.events();
    EventQueue queue;
    std::vector<Event> armed;
    std::vector<std::function<void()>> jobs;
    jobs.reserve(machines_.size());

    // Conservative barrier-tick estimate for event ordering; dueness
    // is always decided against the exact accumulated fleet clock, so
    // an estimate one barrier off cannot move an event.
    const auto tickEstimate = [this, &s](Seconds time) {
        return static_cast<std::uint64_t>(
                   std::ceil(time / s.epochSpan)) *
               epochQuanta_;
    };

    while (s.head() != nullptr || !retryQueue_.empty() || anyLive()) {
        pruneBusy();
        Seconds drainBase = std::max(
            s.lastArrival, std::max(s.lastFault, latestRetry_));
        if (const Invocation *pending = s.head())
            drainBase = std::max(drainBase, pending->arrival);
        if (fleetClock_ > drainBase + cfg_.drainCap)
            fatal("Cluster::run: fleet failed to drain within ",
                  cfg_.drainCap, " simulated seconds of the last "
                  "arrival");

        // Arm the head event of each class. Only *future* arrivals
        // and retries arm: work already due but blocked behind a
        // fleet-wide outage contributes no target — the fault
        // transition that unblocks it does, and the fault head is
        // always armed. The one due arrival that is not blocked is
        // one at t=0 before the first barrier: it arms, so the first
        // barrier serves it as the oracle does. Arming peeks the
        // stream head without pulling it, so the queue holds one
        // arrival per stream, never the trace.
        queue.clear();
        if (const Invocation *head = s.head();
            head != nullptr &&
            (head->arrival > fleetClock_ || fleetTick_ == 0)) {
            queue.push({tickEstimate(head->arrival),
                        EventClass::Arrival, 0, head->seq,
                        head->arrival});
        }
        if (!retryQueue_.empty() &&
            retryQueue_.front().arrival > fleetClock_) {
            queue.push({tickEstimate(retryQueue_.front().arrival),
                        EventClass::Retry, 0,
                        retryQueue_.front().seq,
                        retryQueue_.front().arrival});
        }
        if (faultCursor_ < faultEvents.size()) {
            const FaultEvent &f = faultEvents[faultCursor_];
            queue.push({tickEstimate(f.at), EventClass::Fault,
                        f.machine, faultCursor_, f.at});
        }
        const bool live = !busy_.empty();
        const bool workPending =
            s.head() != nullptr || !retryQueue_.empty();

        // Keep-alive expiries coalesce lazily: one event for the
        // fleet-wide earliest expiry (the heap's top valid entry,
        // lowest index on ties); the sweep it triggers clears
        // everything lapsed at once. Armed only while work is in
        // flight — an idle fleet's sweeps fold into the next real
        // barrier, and the sweep's outcome is the same either way.
        if (live) {
            dropStaleWarmExpiries();
            if (!warmHeap_.empty() &&
                warmHeap_.front().first > fleetClock_) {
                const auto [warmMin, warmMachine] = warmHeap_.front();
                queue.push({tickEstimate(warmMin),
                            EventClass::KeepAlive, warmMachine, 0,
                            warmMin});
            }
        }

        std::uint64_t epochs = 1;
        if (!cfg_.exactQuantum && !queue.empty() &&
            (workPending || !live)) {
            // The heap pops in deterministic (tick, class, machine,
            // seq) order; the advance target is the minimum exact
            // time over the heads (tick estimates are conservative,
            // so scan rather than trust the head alone).
            armed.clear();
            while (!queue.empty())
                armed.push_back(queue.pop());
            Seconds target = armed.front().time;
            for (const Event &e : armed)
                target = std::min(target, e.time);
            if (live) {
                // Busy machines batch straight to the first barrier
                // covering the earliest event; every intermediate
                // barrier is provably a no-op (nothing due, fleet
                // state frozen between events) and harvest re-folds
                // the batch's completions in oracle order.
                epochs = advanceClockToCover(target, s.epochSpan);
            } else {
                // Idle fleet: a conservative jump — floor(gap/span)
                // epochs in one batch, then single steps to the
                // boundary on later iterations.
                const double gap = target - fleetClock_;
                if (gap > s.epochSpan)
                    epochs = std::max<std::uint64_t>(
                        1,
                        static_cast<std::uint64_t>(gap / s.epochSpan));
                advanceFleetEpochs(epochs);
            }
        } else {
            // Drain phase (live work, nothing left to dispatch):
            // march one epoch at a time so the loop exits the moment
            // the fleet drains — exactly when the exact oracle does,
            // before any later fault event fires. Also the fallback
            // when nothing is armed at all (everything due is blocked
            // and no fault is pending: creep to the drain-cap fatal
            // on the same barrier the oracle would), and every step of
            // the oracle itself, which takes each grid barrier.
            advanceFleetEpochs(1);
        }

        // Advance every busy machine to the new barrier in parallel.
        // A busy engine steps only until it drains, then elides the
        // rest of the batch; idle machines get no job at all — they
        // sync lazily at their next dispatch. The oracle steps every
        // machine through every quantum.
        jobs.clear();
        const std::uint64_t quanta = epochs * epochQuanta_;
        const std::uint64_t tick = fleetTick_;
        const Seconds clock = fleetClock_;
        if (cfg_.exactQuantum) {
            for (const auto &m : machines_)
                jobs.emplace_back([machine = m.get(), quanta] {
                    machine->engine.runQuanta(quanta);
                });
        } else {
            for (unsigned i : busy_)
                jobs.emplace_back([machine = machines_[i].get(), tick,
                                   clock] {
                    machine->engine.runToTick(tick, clock);
                });
        }
        report_.sched.barrierMachineVisits += jobs.size();
        if (!jobs.empty())
            s.pool.run(jobs);
        ++report_.sched.barriers;
        if (live)
            ++report_.sched.eventsProgress;

        const Seconds now = fleetClock_;
        harvest(now);
        applyFaults(now);
        dispatchDue(s, now);
    }

    // Land every engine on the final barrier, so inspection (and the
    // quanta + skipped conservation identity) sees one fleet clock,
    // and check the drained fleet's invariants on every run: nothing
    // live, every machine covering the whole grid, every arrival in a
    // terminal state.
    pruneBusy();
    if (!busy_.empty())
        fatal("Cluster::run: busy set holds ", busy_.size(),
              " machines after the fleet drained");
    for (const auto &m : machines_) {
        if (m->engine.taskCount() > 0)
            fatal("Cluster::run: machine ", m->index, " still holds ",
                  m->engine.taskCount(), " tasks after the fleet "
                  "drained");
        m->engine.runToTick(fleetTick_, fleetClock_);
        const sim::EngineStats &st = m->engine.stats();
        const auto covered = static_cast<std::uint64_t>(
            st.quanta.value() + st.skippedQuanta.value());
        if (covered != fleetTick_)
            fatal("Cluster::run: machine ", m->index, " covered ",
                  covered, " quanta, the fleet grid ", fleetTick_);
    }
    const std::uint64_t terminal =
        report_.completions + report_.abandoned + report_.rejectedMemory;
    if (terminal != s.stream->pulled())
        fatal("Cluster::run: ", s.stream->pulled(), " arrivals but ",
              report_.completions, " completed + ", report_.abandoned,
              " abandoned + ", report_.rejectedMemory,
              " rejected = ", terminal);
    return fleetClock_;
}

const FleetReport &
Cluster::run()
{
    if (ran_)
        fatal("Cluster::run called twice");

    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const unsigned threads =
        cfg_.threads > 0
            ? cfg_.threads
            : std::min(static_cast<unsigned>(machines_.size()), hw);

    Serve s(threads);

    // Arrival generation draws from its own SplitMix64-derived
    // substream of the seed (rng_ keeps the raw seed for dispatch
    // jitter), so traffic is identical across dispatch policies and
    // thread counts, and pulling the stream lazily versus draining it
    // upfront (UpfrontTraffic) cannot perturb any other draw.
    Rng trafficRng(deriveArrivalSeed(cfg_.seed));
    s.stream = cfg_.traffic->open(trafficRng, cfg_.functionPool);
    if (s.stream == nullptr)
        fatal("Cluster::run: traffic model '", cfg_.traffic->name(),
              "' opened a null stream");
    if (s.stream->peek() == nullptr)
        fatal("Cluster::run: traffic model '", cfg_.traffic->name(),
              "' generated no arrivals — check its rate/"
              "invocations/duration knobs");

    // Epoch length in whole quanta, computed once on the engines'
    // integer tick grid: every inter-barrier advance below is a whole
    // number of epochs of exactly this many quanta, so a multi-epoch
    // fast-forward executes the same quantum sequence as single-epoch
    // stepping.
    epochQuanta_ = machines_.front()->engine.quantaForDuration(cfg_.epoch);
    s.epochSpan = static_cast<double>(epochQuanta_) *
                  machines_.front()->engine.quantum();

    // Compile the fault campaign into one deterministic schedule over
    // the expected arrival window (scripted faults may land past it;
    // every crash carries its restart). A lazily pulled stream's last
    // arrival is unknown up front, so the horizon is the model's own
    // estimate — the same number however the arrivals are delivered,
    // so streaming and UpfrontTraffic compile identical schedules. The
    // drain deadline extends over pending fault transitions and queued
    // retries: a fleet waiting out an outage is making progress, not
    // hanging.
    faultPlan_ = FaultPlan::compile(cfg_.faults, cfg_.totalMachines(),
                                    cfg_.traffic->horizonHint(),
                                    cfg_.seed);
    s.lastFault = faultPlan_.events().empty()
                      ? 0
                      : faultPlan_.events().back().at;

    // The one O(fleet) snapshot build; from here on only the machines
    // a dispatch, harvest or fault touches are refreshed.
    snaps_ = snapshots();

    report_.makespan = serveEvent(s);
    report_.sched.barriersElided =
        fleetTick_ / epochQuanta_ - report_.sched.barriers;
    // The loop pulls the stream dry before draining, so pulled equals
    // the arrivals served.
    report_.arrivals = s.stream->pulled();
    report_.arrivalFlow.model = s.stream->model();
    report_.arrivalFlow.generated = s.stream->generated();
    report_.arrivalFlow.pulled = s.stream->pulled();
    report_.arrivalFlow.bufferedMax = s.stream->bufferedMax();
    for (const auto &m : machines_)
        report_.sched.idleQuantaSkipped += static_cast<std::uint64_t>(
            m->engine.stats().skippedQuanta.value());
    report_.meanLatency = report_.completions > 0
                              ? latencySum_ / report_.completions
                              : 0.0;
    report_.commercialUsd = 0;
    report_.litmusUsd = 0;
    report_.machines.clear();
    report_.machines.reserve(machines_.size());
    for (const auto &mp : machines_) {
        const Machine &m = *mp;
        MachineReport mr;
        mr.index = m.index;
        mr.type = m.config.name;
        mr.dispatched = m.dispatched;
        mr.coldStarts = m.coldStarts;
        mr.warmStarts = m.warmStarts;
        mr.completions = m.completions;
        for (const pricing::BillRecord &rec : m.ledger.records())
            mr.billedCpuSeconds += rec.cpuSeconds;
        mr.commercialUsd = m.ledger.totalCommercialUsd();
        mr.litmusUsd = m.ledger.totalLitmusUsd();
        mr.meanLatency =
            m.completions > 0 ? m.latencySum / m.completions : 0.0;
        // Quanta *covered* on the canonical grid: executed plus
        // idle-elided. Identical across serving modes (and thread
        // counts) even though the event core never steps idle engines.
        mr.quanta = m.engine.stats().quanta.value() +
                    m.engine.stats().skippedQuanta.value();
        mr.crashes = m.crashes;
        mr.killedInvocations = m.killed;
        mr.lostCpuSeconds = m.lostCpuSeconds;
        mr.absorbedCpuSeconds = m.absorbedCpuSeconds;
        mr.absorbedUsd = m.absorbedUsd;
        report_.commercialUsd += mr.commercialUsd;
        report_.litmusUsd += mr.litmusUsd;
        report_.machines.push_back(mr);
    }

    // Per-type revenue/discount breakdown, merged by type in
    // first-seen order (a type split across several fleet groups
    // still gets one row), folded in machine order like the fleet
    // sums.
    report_.types.clear();
    for (const MachineReport &mr : report_.machines) {
        auto slot = std::find_if(report_.types.begin(),
                                 report_.types.end(),
                                 [&](const TypeReport &t) {
                                     return t.type == mr.type;
                                 });
        if (slot == report_.types.end()) {
            TypeReport fresh;
            fresh.type = mr.type;
            report_.types.push_back(fresh);
            slot = report_.types.end() - 1;
        }
        TypeReport &tr = *slot;
        ++tr.machines;
        tr.dispatched += mr.dispatched;
        tr.coldStarts += mr.coldStarts;
        tr.warmStarts += mr.warmStarts;
        tr.completions += mr.completions;
        tr.billedCpuSeconds += mr.billedCpuSeconds;
        tr.commercialUsd += mr.commercialUsd;
        tr.litmusUsd += mr.litmusUsd;
        tr.crashes += mr.crashes;
        tr.killedInvocations += mr.killedInvocations;
        tr.lostCpuSeconds += mr.lostCpuSeconds;
        tr.absorbedCpuSeconds += mr.absorbedCpuSeconds;
        tr.absorbedUsd += mr.absorbedUsd;
    }

    ran_ = true;
    return report_;
}

} // namespace litmus::cluster
