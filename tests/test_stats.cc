/**
 * @file
 * Tests for summary statistics.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/stats.h"

namespace litmus
{
namespace
{

TEST(Mean, Basics)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({-5, 5}), 0.0);
}

TEST(Gmean, Basics)
{
    EXPECT_DOUBLE_EQ(gmean({4, 1}), 2.0);
    EXPECT_DOUBLE_EQ(gmean({3, 3, 3}), 3.0);
    EXPECT_NEAR(gmean({1, 2, 4, 8}), 2.8284271, 1e-6);
}

TEST(Gmean, RejectsNonPositive)
{
    EXPECT_EXIT(gmean({1.0, 0.0}), ::testing::ExitedWithCode(1), "gmean");
    EXPECT_EXIT(gmean({}), ::testing::ExitedWithCode(1), "gmean");
}

TEST(Gmean, BelowArithmeticMean)
{
    // AM-GM inequality on a spread-out series.
    const std::vector<double> xs = {1.0, 2.0, 9.0, 0.5};
    EXPECT_LT(gmean(xs), mean(xs));
}

TEST(Stddev, Basics)
{
    EXPECT_DOUBLE_EQ(stddev({5, 5, 5}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1}), 0.0);
    EXPECT_NEAR(stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0, 1e-12);
}

TEST(MinMax, Basics)
{
    EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
    EXPECT_EXIT(minOf({}), ::testing::ExitedWithCode(1), "minOf");
}

TEST(MeanAbs, Basics)
{
    EXPECT_DOUBLE_EQ(meanAbs({-1, 1, -3, 3}), 2.0);
    EXPECT_DOUBLE_EQ(meanAbs({}), 0.0);
}

TEST(GmeanAbs, IgnoresZeros)
{
    EXPECT_DOUBLE_EQ(gmeanAbs({-4, 0.0, 1}), 2.0);
    EXPECT_DOUBLE_EQ(gmeanAbs({0.0, 0.0}), 0.0);
}

TEST(Ratio, Elementwise)
{
    const auto r = ratio({2, 9}, {4, 3});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_DOUBLE_EQ(r[0], 0.5);
    EXPECT_DOUBLE_EQ(r[1], 3.0);
}

TEST(Ratio, RejectsMismatchAndZero)
{
    EXPECT_EXIT(ratio({1}, {1, 2}), ::testing::ExitedWithCode(1),
                "ratio");
    EXPECT_EXIT(ratio({1}, {0}), ::testing::ExitedWithCode(1), "ratio");
}

TEST(OnlineStats, MatchesBatch)
{
    const std::vector<double> xs = {3, 1, 4, 1, 5, 9, 2, 6};
    OnlineStats s;
    for (double x : xs)
        s.add(x);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsZero)
{
    OnlineStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

/** Bit pattern, so that -0.0 and 0.0 (or two NaNs) are told apart. */
std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectSameBits(const OnlineStats &a, const OnlineStats &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(bits(a.sum()), bits(b.sum()));
    EXPECT_EQ(bits(a.mean()), bits(b.mean()));
    EXPECT_EQ(bits(a.min()), bits(b.min()));
    EXPECT_EQ(bits(a.max()), bits(b.max()));
    EXPECT_EQ(bits(a.variance()), bits(b.variance()));
}

TEST(OnlineStats, AddRepeatedMatchesLoop)
{
    // 0, a value with an inexact binary expansion, and values (and
    // running sums) just below a binade edge, where the per-sample
    // rounding changes as the sum crosses it.
    const double values[] = {0.0,
                             0.1,
                             std::nextafter(1.0, 0.0),
                             std::nextafter(0.5, 0.0),
                             std::nextafter(1024.0, 0.0),
                             30.342735366253194};
    const double priors[] = {0.0, std::nextafter(2.0, 0.0), 7.25};
    for (const double x : values) {
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, std::size_t{2},
              std::size_t{3}, std::size_t{1000000}}) {
            for (const double prior : priors) {
                SCOPED_TRACE(testing::Message() << "x " << x << " k " << k
                                                << " prior " << prior);
                OnlineStats loop, batch;
                // Empty start, and a start whose sums sit at a prior.
                if (prior != 0.0) {
                    loop.add(prior);
                    batch.add(prior);
                }
                for (std::size_t i = 0; i < k; ++i)
                    loop.add(x);
                batch.addRepeated(x, k);
                expectSameBits(loop, batch);
            }
        }
    }
}

TEST(OnlineStats, ConstantSeriesVarianceIsNotNegative)
{
    // sumSq/n - mean^2 can round below zero; variance() clamps it.
    for (const double x : {0.1, 1.0 / 3.0, 30.342735366253194, 1e-300}) {
        OnlineStats s;
        s.addRepeated(x, 1000001);
        EXPECT_GE(s.variance(), 0.0) << x;
        EXPECT_FALSE(std::isnan(s.stddev())) << x;
    }
}

TEST(OnlineStats, ResetClears)
{
    OnlineStats s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

} // namespace
} // namespace litmus
