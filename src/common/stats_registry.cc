#include "common/stats_registry.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace litmus
{

Stat::Stat(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description))
{
    if (name_.empty())
        fatal("Stat: empty name");
}

std::string
CounterStat::render() const
{
    std::ostringstream os;
    os << value_;
    return os.str();
}

void
AverageStat::fold() const
{
    if (runLength_ == 0)
        return;
    acc_.addRepeated(runValue_, runLength_);
    runLength_ = 0;
}

std::string
AverageStat::render() const
{
    const OnlineStats &acc = accumulator();
    std::ostringstream os;
    os << std::fixed << std::setprecision(4) << acc.mean() << " (min "
       << acc.min() << ", max " << acc.max() << ", n=" << acc.count()
       << ")";
    return os.str();
}

HistogramStat::HistogramStat(std::string name, std::string description,
                             double lo, double hi, std::size_t buckets)
    : Stat(std::move(name), std::move(description)), lo_(lo), hi_(hi)
{
    if (hi <= lo)
        fatal("HistogramStat ", this->name(), ": hi must exceed lo");
    if (buckets == 0)
        fatal("HistogramStat ", this->name(), ": need buckets");
    counts_.resize(buckets, 0);
}

void
HistogramStat::sample(double v)
{
    if (v < lo_) {
        ++underflow_;
        return;
    }
    if (v >= hi_) {
        ++overflow_;
        return;
    }
    const double t = (v - lo_) / (hi_ - lo_);
    auto idx = static_cast<std::size_t>(
        t * static_cast<double>(counts_.size()));
    idx = std::min(idx, counts_.size() - 1);
    ++counts_[idx];
}

std::uint64_t
HistogramStat::total() const
{
    std::uint64_t sum = underflow_ + overflow_;
    for (std::uint64_t c : counts_)
        sum += c;
    return sum;
}

std::string
HistogramStat::render() const
{
    std::ostringstream os;
    os << "n=" << total() << " [";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (i)
            os << ' ';
        os << counts_[i];
    }
    os << "] under=" << underflow_ << " over=" << overflow_;
    return os.str();
}

void
HistogramStat::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    underflow_ = overflow_ = 0;
}

void
StatsRegistry::add(const std::string &group, Stat &stat)
{
    for (const Entry &entry : entries_) {
        if (entry.group == group &&
            entry.stat->name() == stat.name()) {
            fatal("StatsRegistry: duplicate stat ", group, ".",
                  stat.name());
        }
    }
    entries_.push_back({group, &stat});
}

void
StatsRegistry::dump(std::ostream &os) const
{
    std::string lastGroup;
    for (const Entry &entry : entries_) {
        if (entry.group != lastGroup) {
            os << entry.group << ":\n";
            lastGroup = entry.group;
        }
        os << "  " << std::left << std::setw(28) << entry.stat->name()
           << entry.stat->render() << "   # "
           << entry.stat->description() << "\n";
    }
}

} // namespace litmus
