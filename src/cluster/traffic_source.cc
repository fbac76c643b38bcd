#include "cluster/traffic_source.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace litmus::cluster
{

namespace
{

class VectorReplayStream final : public ArrivalStream
{
  public:
    VectorReplayStream(std::vector<Invocation> trace, std::string model)
        : ArrivalStream(std::move(model)), trace_(std::move(trace))
    {
        noteBuffered(trace_.size());
    }

  protected:
    bool produce(Invocation &out) override
    {
        if (next_ >= trace_.size())
            return false;
        out = trace_[next_++];
        return true;
    }

  private:
    std::vector<Invocation> trace_;
    std::size_t next_ = 0;
};

} // namespace

ArrivalStream::ArrivalStream(std::string model) : model_(std::move(model))
{
}

bool
ArrivalStream::fill()
{
    if (done_)
        return false;
    if (!produce(slot_)) {
        done_ = true;
        return false;
    }
    if (slot_.spec == nullptr)
        fatal("traffic model '", model_,
              "' emitted an invocation without a function spec");
    // A NaN compares false against everything, so it must be caught
    // before the ordering check lets it through.
    if (!std::isfinite(slot_.arrival))
        fatal("traffic model '", model_, "' emitted a non-finite arrival "
              "time (", slot_.arrival, ")");
    if (slot_.arrival < lastArrival_)
        fatal("traffic model '", model_, "' emitted out-of-order arrivals (",
              slot_.arrival, " after ", lastArrival_, ")");
    lastArrival_ = slot_.arrival;
    slot_.seq = generated_;
    ++generated_;
    if (bufferedMax_ < 1)
        bufferedMax_ = 1;
    haveSlot_ = true;
    return true;
}

const Invocation *
ArrivalStream::peek()
{
    if (!haveSlot_ && !fill())
        return nullptr;
    return &slot_;
}

bool
ArrivalStream::next(Invocation &out)
{
    if (!haveSlot_ && !fill())
        return false;
    out = slot_;
    haveSlot_ = false;
    ++pulled_;
    return true;
}

void
ArrivalStream::noteBuffered(std::uint64_t resident)
{
    if (resident > bufferedMax_)
        bufferedMax_ = resident;
}

std::vector<Invocation>
TrafficSource::generate(
    Rng &rng,
    const std::vector<const workload::FunctionSpec *> &pool) const
{
    const std::unique_ptr<ArrivalStream> stream = open(rng, pool);
    std::vector<Invocation> trace;
    Invocation inv;
    while (stream->next(inv))
        trace.push_back(inv);
    return trace;
}

std::unique_ptr<ArrivalStream>
replayStream(std::vector<Invocation> trace, std::string model)
{
    return std::make_unique<VectorReplayStream>(std::move(trace),
                                                std::move(model));
}

std::uint64_t
deriveArrivalSeed(std::uint64_t scenarioSeed)
{
    // SplitMix64 substream #2 of the scenario seed; deriveFaultSeed
    // (fault_plan.cc) is substream #1, and the cluster's own
    // dispatch-jitter Rng uses the raw seed. Three independent
    // families: lazy arrival pulls can never perturb jitter draws.
    std::uint64_t z = scenarioSeed + 2 * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace litmus::cluster
