/**
 * @file
 * Persistent worker pool with an epoch barrier.
 *
 * The cluster advances all machines in lockstep: every dispatch epoch
 * it hands the pool one job per machine (advance that machine's engine
 * through the epoch) and blocks until every job has run. Workers are
 * created once and parked between epochs, so the per-epoch cost is two
 * condition-variable sweeps instead of thread churn — epochs are short
 * (default 1 ms simulated) and a fleet run executes thousands of them.
 *
 * Calibration (core/calibration.h) runs its stress cells as one batch
 * on the same pool; it lives in common/ so both layers can use it.
 */

#ifndef LITMUS_COMMON_EPOCH_POOL_H
#define LITMUS_COMMON_EPOCH_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace litmus
{

/**
 * Fixed-size thread pool executing one batch of jobs per call.
 *
 * run() is a barrier: it returns only after every job has completed,
 * so callers may freely read state the jobs wrote. With one thread
 * (or one job) the batch runs inline on the caller, which keeps
 * single-threaded runs bit-identical and easy to debug.
 */
class EpochPool
{
  public:
    /** @param threads worker threads to park (>= 1). */
    explicit EpochPool(unsigned threads);

    ~EpochPool();

    EpochPool(const EpochPool &) = delete;
    EpochPool &operator=(const EpochPool &) = delete;

    /** Execute all jobs, returning once every one has finished. */
    void run(const std::vector<std::function<void()>> &jobs);

  private:
    /**
     * One barrier's worth of work. Claim counters live here, not on
     * the pool, so a worker that oversleeps an epoch can only claim
     * from the (exhausted) batch it saw — never from a later one.
     *
     * Memory-ordering audit (the orderings in epoch_pool.cc are load
     * -bearing; see the comments at each operation):
     *  - `jobs`/`total` are plain: written before the batch is
     *    published under mutex_, read only by threads that observed
     *    that publication (mutex acquire) or created the batch.
     *  - `next` uses relaxed RMWs: it only distributes disjoint
     *    indices; no job data is transferred through it.
     *  - `pending` is the handoff: every decrement is a release (the
     *    finished job's writes sit before it), and the barrier's
     *    "all done" load is an acquire. The RMW chain keeps each
     *    decrement in the release sequence headed by every earlier
     *    one, so a single acquire load that sees 0 synchronizes with
     *    *all* workers' job writes.
     */
    struct Batch
    {
        const std::vector<std::function<void()>> *jobs = nullptr;
        std::size_t total = 0;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> pending{0};
    };

    /** Claim and run jobs until the batch is exhausted. */
    void drain(Batch &batch);

    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_; // set in ctor, then immutable

    Mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable batchDone_;
    std::shared_ptr<Batch> batch_ LITMUS_GUARDED_BY(mutex_);
    std::uint64_t generation_ LITMUS_GUARDED_BY(mutex_) = 0;
    bool stop_ LITMUS_GUARDED_BY(mutex_) = false;
};

} // namespace litmus

#endif // LITMUS_COMMON_EPOCH_POOL_H
