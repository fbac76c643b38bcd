/**
 * @file
 * Summary statistics used throughout calibration and the benches.
 *
 * The paper aggregates per-function slowdowns with the geometric mean
 * (gmean), reports weighted error rates, and normalizes series against
 * solo baselines; this header collects those primitives.
 */

#ifndef LITMUS_COMMON_STATS_H
#define LITMUS_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace litmus
{

/** Arithmetic mean; returns 0 for an empty series. */
double mean(const std::vector<double> &xs);

/**
 * Geometric mean of a strictly positive series.
 * Entries <= 0 are rejected with fatal() since slowdown ratios are
 * positive by construction.
 */
double gmean(const std::vector<double> &xs);

/** Population standard deviation; 0 for fewer than two samples. */
double stddev(const std::vector<double> &xs);

/** Minimum / maximum; fatal() on an empty series. */
double minOf(const std::vector<double> &xs);
double maxOf(const std::vector<double> &xs);

/** Mean of absolute values, used for aggregate error magnitudes. */
double meanAbs(const std::vector<double> &xs);

/** Geometric mean of absolute values (paper's "abs geomean" bar). */
double gmeanAbs(const std::vector<double> &xs);

/** Element-wise ratio a[i] / b[i]; both must have equal, nonzero size. */
std::vector<double> ratio(const std::vector<double> &a,
                          const std::vector<double> &b);

/**
 * Streaming accumulator for mean / variance / extrema over long runs,
 * used by PMU-derived per-quantum series. It keeps the count, the sum,
 * the sum of squares and the extrema, so k samples of one value fold
 * in closed form (addRepeated) into exactly the bits that k add() calls
 * produce.
 */
class OnlineStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Add @p x @p k times: bit-identical to k add(x) calls. */
    void addRepeated(double x, std::size_t k);

    /** Number of observations so far. */
    std::size_t count() const { return n_; }

    /** Sum of the observations, accumulated in arrival order. */
    double sum() const { return sum_; }

    /** Running arithmetic mean (0 if empty). */
    double mean() const
    {
        return n_ ? sum_ / static_cast<double>(n_) : 0.0;
    }

    /** Population variance (0 for fewer than two samples; never
     *  negative, though cancellation may round it to 0). */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    double min() const { return min_; }
    double max() const { return max_; }

    /** Reset to the empty state. */
    void reset();

  private:
    std::size_t n_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace litmus

#endif // LITMUS_COMMON_STATS_H
