#include "common/epoch_pool.h"

#include "common/logging.h"

namespace litmus
{

EpochPool::EpochPool(unsigned threads) : threads_(threads)
{
    if (threads_ == 0)
        fatal("EpochPool: need at least one thread");
    // One thread means inline execution; no workers to park.
    for (unsigned i = 1; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

EpochPool::~EpochPool()
{
    {
        MutexLock lock(&mutex_);
        stop_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
EpochPool::drain(Batch &batch)
{
    for (;;) {
        // relaxed: the counter only hands out disjoint indices; the
        // jobs vector itself was published by the mutex (workerLoop's
        // acquire of batch_) or written by this thread (the caller).
        const std::size_t i =
            batch.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= batch.total)
            return;
        // The jobs vector outlives every in-range claim: run() only
        // returns (and the caller's vector only dies) after pending
        // reaches zero, which needs this job to finish first.
        (*batch.jobs)[i]();
        // release: the job's writes must be visible to whoever
        // observes this decrement. Acquire is not needed here — no
        // thread reads other jobs' results at this point; the barrier
        // read in run() carries the acquire. The RMW keeps this
        // decrement in the release sequence of every earlier one, so
        // run()'s single acquire load of 0 synchronizes with all of
        // them.
        if (batch.pending.fetch_sub(1, std::memory_order_release) == 1) {
            MutexLock lock(&mutex_);
            batchDone_.notify_all();
        }
    }
}

void
EpochPool::run(const std::vector<std::function<void()>> &jobs)
{
    if (jobs.empty())
        return;
    if (workers_.empty() || jobs.size() == 1) {
        for (const auto &job : jobs)
            job();
        return;
    }

    auto batch = std::make_shared<Batch>();
    batch->jobs = &jobs;
    batch->total = jobs.size();
    // relaxed: the batch is published to workers by the mutex_
    // release below; no worker can load pending before that acquire.
    batch->pending.store(jobs.size(), std::memory_order_relaxed);
    {
        MutexLock lock(&mutex_);
        batch_ = batch;
        ++generation_;
    }
    workReady_.notify_all();

    // The caller participates: it drains jobs alongside the workers,
    // so a pool of N threads uses N CPUs, not N - 1.
    drain(*batch);

    // acquire: pairs with every worker's release decrement — seeing
    // pending == 0 makes all job writes visible to the caller, which
    // reads the jobs' results the moment run() returns.
    UniqueLock lock(&mutex_);
    while (batch->pending.load(std::memory_order_acquire) != 0)
        batchDone_.wait(lock.native());
    batch_ = nullptr;
}

void
EpochPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Batch> batch;
        {
            UniqueLock lock(&mutex_);
            while (!stop_ && generation_ == seen)
                workReady_.wait(lock.native());
            if (stop_)
                return;
            seen = generation_;
            batch = batch_;
        }
        // The batch may already be finished and detached (we woke
        // late); the shared_ptr keeps the claim counters valid and
        // drain() then exits without touching the jobs vector.
        if (batch)
            drain(*batch);
    }
}

} // namespace litmus
