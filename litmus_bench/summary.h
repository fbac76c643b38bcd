/**
 * @file
 * Host-time source and repeat statistics for litmus_bench.
 *
 * Every host-time reading in the benchmark goes through wallSeconds(),
 * so the one wall-clock use is in one audited place, and every
 * repeated timing is reported as a Summary (n, median, quartiles,
 * min, max) rather than a single shot. Quartiles use the same
 * "exclusive" interpolation as Python's statistics.quantiles(n=4), so
 * the spreads this binary prints match the ones run.py and the
 * comparison tooling compute from the same samples.
 */

#ifndef LITMUS_BENCH_SUMMARY_H
#define LITMUS_BENCH_SUMMARY_H

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <vector>

namespace litmus::bench
{

/** Seconds on the host's monotonic clock (differences only). */
inline double
wallSeconds()
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch()).count();
}

/** Order statistics of repeated measurements. */
struct Summary
{
    std::size_t n = 0;
    double median = 0;
    double q1 = 0;
    double q3 = 0;
    double min = 0;
    double max = 0;

    /** Summarize @p samples (empty input gives n = 0, all zeros). */
    static Summary of(std::vector<double> samples)
    {
        Summary s;
        s.n = samples.size();
        if (samples.empty())
            return s;
        std::sort(samples.begin(), samples.end());
        s.min = samples.front();
        s.max = samples.back();
        if (samples.size() == 1) {
            s.median = s.q1 = s.q3 = samples.front();
            return s;
        }
        s.q1 = quartile(samples, 1);
        s.median = quartile(samples, 2);
        s.q3 = quartile(samples, 3);
        return s;
    }

  private:
    /** The i-th of three cut points, Python's "exclusive" method. */
    static double quartile(const std::vector<double> &sorted, long i)
    {
        const long n = static_cast<long>(sorted.size());
        const long m = n + 1;
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const long delta = i * m - j * 4;
        return (sorted[j - 1] * static_cast<double>(4 - delta) +
                sorted[j] * static_cast<double>(delta)) /
               4.0;
    }
};

} // namespace litmus::bench

#endif // LITMUS_BENCH_SUMMARY_H
