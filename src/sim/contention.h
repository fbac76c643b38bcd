/**
 * @file
 * Shared-resource contention model.
 *
 * Once per quantum the solver takes every running hardware thread's
 * demand and computes a self-consistent operating point of the shared
 * domain:
 *
 *  - the L3 access path (CT-Gen's target): aggregate L2-miss traffic
 *    vs. L3 service bandwidth gives a queuing multiplier on L3 hit
 *    latency;
 *  - L3 capacity: threads receive occupancy shares proportional to
 *    their working sets; a thread squeezed below its working set sees
 *    an elevated L3 miss fraction (MB-Gen's eviction effect);
 *  - DRAM bandwidth (MB-Gen's target): aggregate L3-miss traffic vs.
 *    memory service bandwidth gives a queuing multiplier on memory
 *    latency.
 *
 * The fixed point is found by damped iteration: faster threads create
 * more traffic, which raises latencies, which slows threads down.
 */

#ifndef LITMUS_SIM_CONTENTION_H
#define LITMUS_SIM_CONTENTION_H

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "sim/machine_config.h"
#include "sim/task.h"

namespace litmus::sim
{

/** Per-thread multipliers the scheduler decides before solving. */
struct ThreadEnvironment
{
    /** Cache-warmth CPI inflation from temporal sharing (>= 1). */
    double warmthMult = 1.0;

    /** SMT sibling-activity CPI inflation (>= 1). */
    double smtMult = 1.0;
};

/** One running hardware thread as seen by the solver. */
struct SolverInput
{
    ResourceDemand demand;
    ThreadEnvironment env;
};

/** Shared-domain operating point, identical for all threads. */
struct SharedState
{
    /** Effective L3 hit latency in ns after queuing. */
    double l3LatencyNs = 0.0;

    /** Effective DRAM latency in ns after queuing. */
    double memLatencyNs = 0.0;

    /** Utilization of the L3 access path, clamped to [0, 1]. */
    double l3Utilization = 0.0;

    /** Utilization of DRAM bandwidth, clamped to [0, 1]. */
    double memUtilization = 0.0;

    /** Sum of all running threads' L3 working sets (bytes). */
    double totalWorkingSet = 0.0;
};

/** Per-thread outcome of the solve. */
struct ThreadPerf
{
    /** Effective private CPI (cpi0 x warmth x smt x coupling). */
    double privateCpi = 0.0;

    /** Shared-domain stall cycles per instruction. */
    double stallPerInstr = 0.0;

    /** L3 miss fraction of this thread's L2 misses, in [0,1]. */
    double l3MissFraction = 0.0;

    /** Total effective CPI. */
    double cpi() const { return privateCpi + stallPerInstr; }

    /** Instructions per cycle. */
    double ipc() const { return 1.0 / cpi(); }
};

/** Complete solver result for a quantum. */
struct ContentionResult
{
    SharedState shared;
    std::vector<ThreadPerf> threads;
};

/**
 * Analytic fixed-point solver for the shared domain.
 *
 * solve() computes exactly what calling threadPerf() for every thread
 * in every round would, but evaluates each thread's state-independent
 * terms once per solve instead of once per round: the capacity share
 * and miss fraction (the share depends only on totalWorkingSet, fixed
 * before the first round), the L2 misses per instruction and the base
 * CPI cpi0 x warmth x smt. Each round then computes only what the
 * iterated utilizations and latencies move. Every hoisted expression
 * keeps threadPerf's operands and evaluation order, and the traffic
 * sums stay serial in thread order, so the result is bit-identical.
 *
 * Stateless apart from the configuration, so one const instance may
 * be shared across threads; one instance per Machine.
 */
class ContentionSolver
{
  public:
    explicit ContentionSolver(const MachineConfig &cfg);

    /**
     * Solve the operating point for the given running threads.
     * @param inputs one entry per running hardware thread
     * @param frequency current core clock (traffic scales with it)
     * @param waiting_working_set summed L3 working sets (bytes) of
     *        runnable-but-switched-out tasks; scaled by the config's
     *        residencyFactor it pressures the capacity shares
     */
    ContentionResult solve(const std::vector<SolverInput> &inputs,
                           Hertz frequency,
                           double waiting_working_set = 0.0) const;

    /**
     * solve() into a caller-owned @p result, reusing the capacity of
     * its thread vector (no allocation once it has held inputs.size()
     * threads). Every field of @p result is overwritten.
     */
    void solve(const std::vector<SolverInput> &inputs, Hertz frequency,
               double waiting_working_set, ContentionResult &result) const;

    /**
     * Recompute a single thread's perf against a fixed shared state
     * (used when a task changes phase mid-quantum).
     */
    ThreadPerf threadPerf(const ResourceDemand &demand,
                          const ThreadEnvironment &env,
                          const SharedState &shared,
                          Hertz frequency) const;

    /**
     * Queuing-delay multiplier at utilization u (clamped to [0,1]):
     * qf(u) = 1 + (qmax - 1) * u^gamma. Smooth, 1 at u=0, saturating
     * at qmax when the resource is fully utilized.
     */
    double queueFactor(double u, double qmax) const;

    /**
     * L3 miss fraction for a demand given its capacity share.
     * Exposed for unit tests of the capacity-pressure curve.
     */
    double missFraction(const ResourceDemand &demand,
                        double shareBytes) const;

  private:
    const MachineConfig &cfg_;
};

/**
 * LRU memo of solved contention fixed points.
 *
 * The solver is a pure function of (thread demands, environments,
 * frequency, waiting working set) — the *phase signature* of the
 * co-running tasks. Repeated co-run patterns dominate both the Table 1
 * suite and the fleet path, so memoizing the iterative solve removes it
 * from the hot loop entirely. Keys are built from the exact bit
 * patterns of every input, so a hit returns a result bit-identical to
 * a fresh solve and the memo can never change simulation output.
 *
 * Entries grow with the co-run width: a key of 2 + 7n words and a
 * result of 3n words for n running threads. The LRU therefore evicts
 * while the memo holds more than `capacity` entries *or* more than
 * `capacity * kWordsPerEntry` words, so saturated machines (~30
 * threads, ~300 words an entry) keep ~100 signatures instead of
 * ~5 MB of them; signatures of at most three threads fit the word
 * budget, so those still keep `capacity` entries.
 *
 * Each key is hashed once; the entry keeps the hash, and the index
 * refers to the entry's own key instead of a copy. Once the memo is
 * full, a miss reuses the evicted LRU entry's list node, index node,
 * key and result storage, so it allocates only when the new signature
 * is wider than the storage it reuses. words() counts the words in
 * use, not the reused storage's capacity.
 *
 * Wide keys are also costly to hash, so on traffic whose signatures
 * rarely repeat — per-invocation jitter makes every fleet arrival
 * unique — hashing can cost more than the hits save.
 * The memo watches its own hit rate and permanently bypasses itself
 * when, after a warm-up, hits stay under ~20% of lookups; the bypass
 * only changes *where* the solve runs, never its result.
 *
 * Concurrency discipline: the memo is deliberately unsynchronized —
 * no mutex, no capability annotation. Each Machine owns exactly one
 * memo, each machine is advanced by exactly one EpochPool job at a
 * time (one per epoch in a fleet, one per stress cell in calibration),
 * and the pool's barrier (see common/epoch_pool.h) orders one batch's
 * accesses before the next. The memo is thread-*confined*, not
 * thread-safe; sharing one instance across concurrently-advancing
 * machines would be a data race.
 */
class ContentionMemo
{
  public:
    /** Word budget per entry of capacity: a 3-thread signature. */
    static constexpr std::size_t kWordsPerEntry = 32;

    /** @param capacity distinct phase signatures kept (LRU beyond);
     *  the memo also keeps at most capacity * kWordsPerEntry words. */
    explicit ContentionMemo(std::size_t capacity = 1024);

    /**
     * Solve via the memo; falls through to @p solver on a miss.
     * The returned reference stays valid until the next solve() call.
     */
    const ContentionResult &solve(const ContentionSolver &solver,
                                  const std::vector<SolverInput> &inputs,
                                  Hertz frequency,
                                  double waiting_working_set);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Key and result words the kept entries store (see entryWords). */
    std::size_t words() const { return words_; }

    /** True once the hit-rate watchdog has switched the memo off. */
    bool bypassed() const { return bypassed_; }

  private:
    /** Bit patterns of every solver input, in a fixed layout. */
    using Key = std::vector<std::uint64_t>;

    /** One kept signature: its key, the key's hash and the result. */
    struct Entry
    {
        std::size_t hash = 0;
        Key key;
        ContentionResult result;
    };
    using Entries = std::list<Entry>; // MRU first

    /**
     * Index key: a view of a key (an entry's, or the lookup buffer)
     * with its precomputed hash, so the index neither copies keys nor
     * hashes them again. Equal hashes are confirmed by full key
     * equality.
     */
    struct KeyRef
    {
        const Key *key;
        std::size_t hash;

        bool operator==(const KeyRef &other) const
        {
            return hash == other.hash &&
                   (key == other.key || *key == *other.key);
        }
    };

    struct KeyRefHash
    {
        std::size_t operator()(const KeyRef &ref) const
        {
            return ref.hash;
        }
    };

    /** FNV-1a over the packed bit patterns. */
    static std::size_t hashKey(const Key &key);

    /** Build the lookup key into @p key (reused buffer, no alloc). */
    static void makeKey(Key &key,
                        const std::vector<SolverInput> &inputs,
                        Hertz frequency, double waiting_working_set);

    /** Words one entry stores: its key plus 3 per thread result. */
    static std::size_t entryWords(const Key &key,
                                  const ContentionResult &result);

    // LITMUS-LINT-ALLOW(unordered-decl): keyed lookup only; LRU/eviction order lives in entries_ (std::list), and hits are bit-identical to fresh solves
    using Index = std::unordered_map<KeyRef, Entries::iterator, KeyRefHash>;

    /**
     * Take the LRU entry out of the index and the word count; the
     * entry stays in the list. Returns its index node for reuse.
     */
    Index::node_type unlinkBack();

    std::size_t capacity_;
    std::size_t words_ = 0;
    Key keyBuffer_;
    Entries entries_;
    Index index_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    bool bypassed_ = false;
    /** Holds the result of a bypassed (direct) solve. */
    ContentionResult bypassResult_;
};

} // namespace litmus::sim

#endif // LITMUS_SIM_CONTENTION_H
