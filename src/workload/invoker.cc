#include "workload/invoker.h"

#include "common/logging.h"
#include "workload/suite.h"

namespace litmus::workload
{

Invoker::Invoker(sim::Engine &engine, InvokerConfig cfg)
    : engine_(engine), cfg_(std::move(cfg)), rng_(cfg_.seed)
{
    if (cfg_.functionPool.empty())
        cfg_.functionPool = allFunctions();
    if (cfg_.cpuPool.empty())
        fatal("Invoker: empty cpuPool");
    if (cfg_.placement == InvokerConfig::Placement::OnePerCore &&
        cfg_.cpuPool.size() < cfg_.targetCount) {
        fatal("Invoker: OnePerCore needs >= targetCount CPUs (",
              cfg_.cpuPool.size(), " < ", cfg_.targetCount, ")");
    }
    engine_.onCompletion(
        [this](sim::Task &task) { handleCompletion(task); });
}

void
Invoker::start()
{
    if (!owned_.empty())
        fatal("Invoker::start called twice");
    for (unsigned i = 0; i < cfg_.targetCount; ++i) {
        if (cfg_.placement == InvokerConfig::Placement::OnePerCore)
            launchOrDefer({cfg_.cpuPool[i]});
        else
            launchOrDefer(cfg_.cpuPool);
    }
}

void
Invoker::handleCompletion(const sim::Task &task)
{
    const auto it = owned_.find(task.id());
    if (it == owned_.end())
        return;
    std::vector<unsigned> affinity = std::move(it->second.affinity);
    committedMemory_ -= it->second.memory;
    owned_.erase(it);
    const std::size_t waited = waiting_.size();
    launchOrDefer(std::move(affinity));

    // The freed memory may now fit slots that were already waiting.
    // Retry them oldest first; the first that still does not fit keeps
    // its place and holds back those behind it.
    std::size_t launched = 0;
    while (launched < waited && launch(waiting_[launched]))
        ++launched;
    waiting_.erase(waiting_.begin(),
                   waiting_.begin() + static_cast<std::ptrdiff_t>(launched));
}

void
Invoker::launchOrDefer(std::vector<unsigned> affinity)
{
    if (launch(affinity))
        return;
    ++deferred_;
    waiting_.push_back(std::move(affinity));
}

bool
Invoker::launch(const std::vector<unsigned> &affinity)
{
    const Bytes capacity = engine_.config().memoryCapacity;

    // Sample a function; when the memory limit is enforced, resample a
    // few times for one that fits, preferring smaller footprints the
    // way a real placer backfills.
    const FunctionSpec *spec = nullptr;
    for (int attempt = 0; attempt < 8; ++attempt) {
        const FunctionSpec *candidate =
            cfg_.functionPool[rng_.below(cfg_.functionPool.size())];
        if (!cfg_.enforceMemoryCapacity ||
            committedMemory_ + candidate->memoryFootprint <= capacity) {
            spec = candidate;
            break;
        }
    }
    if (!spec)
        return false;

    // Co-runners are never priced, so they carry no probe.
    InvocationOptions opts;
    opts.withProbe = false;
    auto task = makeInvocation(*spec, rng_, opts);
    task->setAffinity(affinity);
    sim::Task &handle = engine_.add(std::move(task));
    committedMemory_ += spec->memoryFootprint;
    owned_.emplace(handle.id(), Owned{affinity, spec->memoryFootprint});
    ++launched_;
    return true;
}

} // namespace litmus::workload
