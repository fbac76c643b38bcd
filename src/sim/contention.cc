#include "sim/contention.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace litmus::sim
{

ContentionSolver::ContentionSolver(const MachineConfig &cfg) : cfg_(cfg)
{
}

double
ContentionSolver::queueFactor(double u, double qmax) const
{
    const double capped = std::clamp(u, 0.0, 1.0);
    return 1.0 + (qmax - 1.0) * std::pow(capped, cfg_.queueGamma);
}

double
ContentionSolver::missFraction(const ResourceDemand &demand,
                               double shareBytes) const
{
    if (demand.l2Mpki <= 0.0)
        return 0.0;
    const double ws = static_cast<double>(demand.l3WorkingSet);
    double capacityMiss = 0.0;
    if (ws > 0.0 && shareBytes < ws) {
        const double deficit = 1.0 - shareBytes / ws;
        capacityMiss = std::pow(deficit, cfg_.capacityMissExponent);
    }
    const double m =
        demand.l3MissBase + (1.0 - demand.l3MissBase) * capacityMiss;
    return std::clamp(m, 0.0, 1.0);
}

ThreadPerf
ContentionSolver::threadPerf(const ResourceDemand &demand,
                             const ThreadEnvironment &env,
                             const SharedState &shared,
                             Hertz frequency) const
{
    const double cyclesPerNs = frequency * 1e-9;

    ThreadPerf perf;

    // Capacity share: proportional occupancy. When the machine's total
    // demand fits, everyone gets their working set; otherwise shares
    // shrink proportionally (a streaming co-runner evicts neighbours).
    const double ws = static_cast<double>(demand.l3WorkingSet);
    const double l3 = static_cast<double>(cfg_.l3Capacity);
    double share = ws;
    if (shared.totalWorkingSet > l3 && shared.totalWorkingSet > 0.0)
        share = l3 * ws / shared.totalWorkingSet;
    perf.l3MissFraction = missFraction(demand, share);

    // Shared-domain stall per instruction, in cycles at the current
    // frequency (latencies are physical ns; a faster clock waits more
    // cycles for the same DRAM access).
    const double missPerInstr = demand.l2Mpki / 1000.0;
    const double m = perf.l3MissFraction;
    const double avgLatNs = (1.0 - m) * shared.l3LatencyNs +
                            m * shared.memLatencyNs;
    perf.stallPerInstr =
        missPerInstr * avgLatNs * cyclesPerNs / demand.mlp;

    // Private CPI with warmth, SMT, and the uncore-coupling term that
    // scales with the task's own memory intensity (capped so generator
    // extremes stay plausible).
    const double intensity =
        std::min(1.0, demand.l2Mpki / cfg_.couplingSaturationMpki);
    const double rawCoupling =
        intensity * (cfg_.privateCouplingL3 * shared.l3Utilization +
                     cfg_.privateCouplingMem * shared.memUtilization);
    const double coupling =
        1.0 + std::min(rawCoupling, cfg_.privateCouplingMax);
    perf.privateCpi =
        demand.cpi0 * env.warmthMult * env.smtMult * coupling;

    return perf;
}

ContentionResult
ContentionSolver::solve(const std::vector<SolverInput> &inputs,
                        Hertz frequency,
                        double waiting_working_set) const
{
    ContentionResult result;
    solve(inputs, frequency, waiting_working_set, result);
    return result;
}

void
ContentionSolver::solve(const std::vector<SolverInput> &inputs,
                        Hertz frequency, double waiting_working_set,
                        ContentionResult &result) const
{
    const std::size_t n = inputs.size();
    result.threads.resize(n);

    SharedState &shared = result.shared;
    shared = SharedState{};
    shared.l3LatencyNs = cfg_.l3HitLatencyNs;
    shared.memLatencyNs = cfg_.memLatencyNs;

    // Cache residue of switched-out co-located functions competes for
    // capacity alongside the running threads' working sets.
    shared.totalWorkingSet =
        cfg_.residencyFactor * std::max(0.0, waiting_working_set);
    for (const auto &input : inputs)
        shared.totalWorkingSet +=
            static_cast<double>(input.demand.l3WorkingSet);

    if (n == 0)
        return;

    const double ghz = frequency * 1e-9; // cycles per ns

    // Terms that do not depend on the iterated state, once per thread
    // (the expressions threadPerf evaluates, in the same order). While
    // the rounds run, each thread's slots hold its invariants: the
    // final miss fraction, the base CPI cpi0 x warmth x smt in
    // privateCpi, and the L2 misses per instruction in stallPerInstr.
    const double l3 = static_cast<double>(cfg_.l3Capacity);
    const bool squeezed =
        shared.totalWorkingSet > l3 && shared.totalWorkingSet > 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const ResourceDemand &d = inputs[i].demand;
        ThreadPerf &slots = result.threads[i];
        const double ws = static_cast<double>(d.l3WorkingSet);
        const double share =
            squeezed ? l3 * ws / shared.totalWorkingSet : ws;
        slots.l3MissFraction = missFraction(d, share);
        slots.privateCpi =
            d.cpi0 * inputs[i].env.warmthMult * inputs[i].env.smtMult;
        slots.stallPerInstr = d.l2Mpki / 1000.0;
    }

    // Thread i's CPI terms at the current shared state: threadPerf's
    // state-dependent half. couplingLoad is its per-round factor
    // privateCouplingL3 * uL3 + privateCouplingMem * uMem.
    const auto operatingPoint = [&](std::size_t i, double couplingLoad) {
        const ResourceDemand &d = inputs[i].demand;
        const ThreadPerf &slots = result.threads[i];
        const double m = slots.l3MissFraction;
        const double avgLatNs = (1.0 - m) * shared.l3LatencyNs +
                                m * shared.memLatencyNs;
        const double stall = slots.stallPerInstr * avgLatNs * ghz / d.mlp;
        const double intensity =
            std::min(1.0, d.l2Mpki / cfg_.couplingSaturationMpki);
        const double coupling =
            1.0 + std::min(intensity * couplingLoad,
                           cfg_.privateCouplingMax);
        return std::pair{slots.privateCpi * coupling, stall};
    };
    const auto setState = [&](double uL3, double uMem) {
        shared.l3Utilization = uL3;
        shared.memUtilization = uMem;
        shared.l3LatencyNs =
            cfg_.l3HitLatencyNs * queueFactor(uL3, cfg_.l3QueueMax);
        shared.memLatencyNs =
            cfg_.memLatencyNs * queueFactor(uMem, cfg_.memQueueMax);
        return cfg_.privateCouplingL3 * uL3 +
               cfg_.privateCouplingMem * uMem;
    };

    // Damped fixed-point iteration: four rounds, then a final pass at
    // the damped state. Traffic rates move latencies which move rates;
    // the damping factor keeps the loop stable even at saturation.
    constexpr int iterations = 4;
    constexpr double damping = 0.6;

    double uL3 = 0.0;
    double uMem = 0.0;

    for (int iter = 0; iter < iterations; ++iter) {
        const double couplingLoad = setState(uL3, uMem);

        double l3AccessPerNs = 0.0;
        double memLinesPerNs = 0.0;

        for (std::size_t i = 0; i < n; ++i) {
            const auto [privateCpi, stall] = operatingPoint(i, couplingLoad);
            // Instructions per ns this thread retires at the current
            // operating point.
            const double ipns = ghz / (privateCpi + stall);
            const double missesPerNs =
                ipns * inputs[i].demand.l2Mpki / 1000.0;
            l3AccessPerNs += missesPerNs;
            memLinesPerNs +=
                missesPerNs * result.threads[i].l3MissFraction;
        }

        const double newUL3 =
            std::min(l3AccessPerNs / cfg_.l3ServiceRate, 1.0);
        const double newUMem =
            std::min(memLinesPerNs / cfg_.memServiceRate, 1.0);

        uL3 = damping * newUL3 + (1.0 - damping) * uL3;
        uMem = damping * newUMem + (1.0 - damping) * uMem;
    }

    const double couplingLoad = setState(uL3, uMem);
    for (std::size_t i = 0; i < n; ++i) {
        const auto [privateCpi, stall] = operatingPoint(i, couplingLoad);
        result.threads[i].privateCpi = privateCpi;
        result.threads[i].stallPerInstr = stall;
    }
}

ContentionMemo::ContentionMemo(std::size_t capacity)
    : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("ContentionMemo: capacity must be positive");
}

std::size_t
ContentionMemo::hashKey(const Key &key)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t word : key) {
        h ^= word;
        h *= 0x100000001b3ull;
    }
    return static_cast<std::size_t>(h);
}

void
ContentionMemo::makeKey(Key &key,
                        const std::vector<SolverInput> &inputs,
                        Hertz frequency, double waiting_working_set)
{
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    key.clear();
    key.reserve(2 + 7 * inputs.size());
    key.push_back(bits(frequency));
    key.push_back(bits(waiting_working_set));
    for (const SolverInput &in : inputs) {
        key.push_back(bits(in.demand.cpi0));
        key.push_back(bits(in.demand.l2Mpki));
        key.push_back(in.demand.l3WorkingSet);
        key.push_back(bits(in.demand.l3MissBase));
        key.push_back(bits(in.demand.mlp));
        key.push_back(bits(in.env.warmthMult));
        key.push_back(bits(in.env.smtMult));
    }
}

std::size_t
ContentionMemo::entryWords(const Key &key, const ContentionResult &result)
{
    return key.size() + 3 * result.threads.size();
}

ContentionMemo::Index::node_type
ContentionMemo::unlinkBack()
{
    const Entry &lru = entries_.back();
    words_ -= entryWords(lru.key, lru.result);
    return index_.extract(KeyRef{&lru.key, lru.hash});
}

// Runs unsynchronized by design: the memo is confined to the single
// EpochPool job advancing its machine (see the class comment), so no
// lock is taken here and none of the members carry LITMUS_GUARDED_BY.
const ContentionResult &
ContentionMemo::solve(const ContentionSolver &solver,
                      const std::vector<SolverInput> &inputs,
                      Hertz frequency, double waiting_working_set)
{
    if (bypassed_) {
        ++misses_;
        solver.solve(inputs, frequency, waiting_working_set,
                     bypassResult_);
        return bypassResult_;
    }

    makeKey(keyBuffer_, inputs, frequency, waiting_working_set);
    const std::size_t hash = hashKey(keyBuffer_);
    const auto it = index_.find(KeyRef{&keyBuffer_, hash});
    if (it != index_.end()) {
        ++hits_;
        entries_.splice(entries_.begin(), entries_, it->second);
        return entries_.front().result;
    }
    ++misses_;

    // Hit-rate watchdog: once warm, a memo that hits on fewer than
    // ~20% of lookups costs more in key hashing than it saves in
    // skipped solves (per-invocation jitter makes fleet signatures
    // nearly unique). Bypass permanently; results are unchanged.
    constexpr std::uint64_t warmupMisses = 2048;
    if (misses_ >= warmupMisses && hits_ * 5 < misses_) {
        bypassed_ = true;
        entries_.clear();
        index_.clear();
        words_ = 0;
        solver.solve(inputs, frequency, waiting_working_set,
                     bypassResult_);
        return bypassResult_;
    }

    // The new entry goes in at the MRU end, then entries are evicted
    // from the LRU end, never the new one (it is the one returned, and
    // may alone exceed the word budget). When that would evict at all,
    // the first entry to go is the current LRU one, so its list node,
    // index node, key and result storage are reused for the new entry.
    const std::size_t budget = capacity_ * kWordsPerEntry;
    const std::size_t newWords = keyBuffer_.size() + 3 * inputs.size();
    Index::node_type node;
    if (!entries_.empty() && (entries_.size() + 1 > capacity_ ||
                              words_ + newWords > budget)) {
        node = unlinkBack();
        entries_.splice(entries_.begin(), entries_,
                        std::prev(entries_.end()));
        entries_.front().key.swap(keyBuffer_);
    } else {
        entries_.emplace_front();
        entries_.front().key = keyBuffer_;
    }
    Entry &entry = entries_.front();
    entry.hash = hash;
    solver.solve(inputs, frequency, waiting_working_set, entry.result);
    words_ += entryWords(entry.key, entry.result);
    const KeyRef ref{&entry.key, hash};
    if (node) {
        node.key() = ref;
        node.mapped() = entries_.begin();
        index_.insert(std::move(node));
    } else {
        index_.emplace(ref, entries_.begin());
    }

    while (entries_.size() > 1 &&
           (entries_.size() > capacity_ || words_ > budget)) {
        unlinkBack();
        entries_.pop_back();
    }
    return entry.result;
}

} // namespace litmus::sim
