/**
 * @file
 * gem5-style statistics registry: named scalar counters, averages and
 * histograms that components register once and a harness dumps at the
 * end of a run.
 *
 * Components own their Stat objects; a StatsRegistry holds non-owning
 * references grouped by component name and renders an aligned report
 * or CSV. Used by the engine to export utilization/ latency summaries
 * and by experiment drivers for custom instrumentation.
 */

#ifndef LITMUS_COMMON_STATS_REGISTRY_H
#define LITMUS_COMMON_STATS_REGISTRY_H

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/stats.h"

namespace litmus
{

/** Base class of all registrable statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string description);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }

    /** One-line formatted value. */
    virtual std::string render() const = 0;

    /** Reset to the initial state. */
    virtual void reset() = 0;

  private:
    std::string name_;
    std::string description_;
};

/** Monotonic scalar counter. */
class CounterStat : public Stat
{
  public:
    using Stat::Stat;

    void add(double v = 1.0) { value_ += v; }
    double value() const { return value_; }

    std::string render() const override;
    void reset() override { value_ = 0; }

  private:
    double value_ = 0;
};

/**
 * Mean/min/max accumulator (wraps OnlineStats).
 *
 * Consecutive samples of one value are held back as a pending run and
 * folded into the accumulator in one OnlineStats::addRepeated() when a
 * different value arrives or the stat is read. k sequential add(v)
 * calls compose, so the folded state is bit-identical to adding every
 * sample as it came. Values match by their bits: +0.0 and -0.0, and
 * NaNs, never share a run. A read folds, so reading one stat from two
 * threads at once needs the same locking as sampling it.
 */
class AverageStat : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v) { sampleRepeated(v, 1); }

    /** @p k samples of @p v, bit-identical to k sample(v) calls. */
    void sampleRepeated(double v, std::size_t k)
    {
        if (k == 0)
            return;
        if (runLength_ != 0 && std::bit_cast<std::uint64_t>(v) !=
                                   std::bit_cast<std::uint64_t>(runValue_))
            fold();
        runValue_ = v;
        runLength_ += k;
    }

    /** Every sample so far (folds the pending run). */
    const OnlineStats &accumulator() const
    {
        fold();
        return acc_;
    }

    std::string render() const override;
    void reset() override
    {
        acc_.reset();
        runLength_ = 0;
    }

  private:
    /** Add the pending run to acc_ and clear it. */
    void fold() const;

    // Folding on a read is not a logical change, hence mutable.
    mutable OnlineStats acc_;
    mutable std::size_t runLength_ = 0;
    double runValue_ = 0;
};

/** Fixed-range linear histogram. */
class HistogramStat : public Stat
{
  public:
    /**
     * @param lo lower bound of the first bucket
     * @param hi upper bound of the last bucket
     * @param buckets bucket count (underflow/overflow tracked apart)
     */
    HistogramStat(std::string name, std::string description, double lo,
                  double hi, std::size_t buckets);

    void sample(double v);

    std::size_t bucketCount() const { return counts_.size(); }
    std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t total() const;

    std::string render() const override;
    void reset() override;

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
};

/**
 * Grouped collection of non-owning stat references.
 */
class StatsRegistry
{
  public:
    /** Register a stat under a component group. */
    void add(const std::string &group, Stat &stat);

    /** Render all groups as an aligned report. */
    void dump(std::ostream &os) const;

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::string group;
        Stat *stat;
    };

    std::vector<Entry> entries_;
};

} // namespace litmus

#endif // LITMUS_COMMON_STATS_REGISTRY_H
