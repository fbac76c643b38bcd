#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/repeated_add.h"

namespace litmus
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
gmean(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("gmean of an empty series");
    double logSum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            fatal("gmean requires positive entries, got ", x);
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(xs.size()));
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size()));
}

double
minOf(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("minOf of an empty series");
    return *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("maxOf of an empty series");
    return *std::max_element(xs.begin(), xs.end());
}

double
meanAbs(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += std::fabs(x);
    return sum / static_cast<double>(xs.size());
}

double
gmeanAbs(const std::vector<double> &xs)
{
    std::vector<double> abs;
    abs.reserve(xs.size());
    for (double x : xs) {
        const double a = std::fabs(x);
        // Ignore exact zeros: a zero error would collapse the gmean and
        // the paper's "abs geomean" bar is computed over nonzero errors.
        if (a > 0.0)
            abs.push_back(a);
    }
    if (abs.empty())
        return 0.0;
    return gmean(abs);
}

std::vector<double>
ratio(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size() || a.empty())
        fatal("ratio: size mismatch (", a.size(), " vs ", b.size(), ")");
    std::vector<double> out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (b[i] == 0.0)
            fatal("ratio: zero denominator at index ", i);
        out[i] = a[i] / b[i];
    }
    return out;
}

void
OnlineStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    sumSq_ += x * x;
}

void
OnlineStats::addRepeated(double x, std::size_t k)
{
    if (k == 0)
        return;
    // The first sample through add() sets the extrema; the rest cannot
    // move them, and their sums are closed-form repeated fadds.
    add(x);
    sum_ = litmus::addRepeated(sum_, x, k - 1);
    sumSq_ = litmus::addRepeated(sumSq_, x * x, k - 1);
    n_ += k - 1;
}

double
OnlineStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    const double m = mean();
    return std::max(0.0, sumSq_ / static_cast<double>(n_) - m * m);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

void
OnlineStats::reset()
{
    *this = OnlineStats();
}

} // namespace litmus
