/**
 * @file
 * Tests for addRepeated(): the closed form must return exactly the
 * bits of the sequential `t += step` loop it replaces.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/repeated_add.h"
#include "common/rng.h"

namespace litmus
{
namespace
{

/** Uniform in [lo, hi]. */
std::uint64_t
between(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng.below(hi - lo + 1);
}

Seconds
loop(Seconds t, Seconds step, std::uint64_t n)
{
    for (; n > 0; --n)
        t += step;
    return t;
}

/** Steps whose rounding differs across binades: the engine quantum,
 *  the dispatch epoch, a coarse step, two dyadic steps that become
 *  exact ties (step/ulp = .5 at t ~ 2^43, 1.5 at t ~ 2^33), and a
 *  step with its lowest mantissa bit set. */
std::vector<Seconds>
steps()
{
    return {50e-6,
            1e-3,
            0.1,
            std::ldexp(1.0, -10),
            3 * std::ldexp(1.0, -20),
            std::bit_cast<double>(std::bit_cast<std::uint64_t>(0.25) | 1)};
}

/** Zero, powers of two and their neighbours on both sides, including
 *  the binades where the dyadic steps tie. */
std::vector<Seconds>
edgeStarts()
{
    std::vector<Seconds> out{0.0};
    for (int e : {-30, -12, -1, 0, 1, 3, 12, 33, 34, 43, 44}) {
        const Seconds p = std::ldexp(1.0, e);
        out.push_back(std::nextafter(p, 0.0));
        out.push_back(p);
        out.push_back(std::nextafter(p, 2 * p));
    }
    return out;
}

TEST(RepeatedAdd, SmallCountsAreTheLoop)
{
    for (Seconds step : steps())
        for (Seconds start : edgeStarts())
            for (std::uint64_t n : {0u, 1u, 2u, 3u})
                EXPECT_EQ(addRepeated(start, step, n),
                          loop(start, step, n))
                    << "start " << start << " step " << step << " n "
                    << n;
}

TEST(RepeatedAdd, EveryPrefixFromBinadeEdgesMatchesTheLoop)
{
    // Each prefix of the walk, so every binade crossing (and every tie
    // resolved by the first addition's parity) is on the path.
    const std::uint64_t n = 4000;
    for (Seconds step : steps()) {
        for (Seconds start : edgeStarts()) {
            Seconds t = start;
            for (std::uint64_t i = 0; i <= n; ++i) {
                ASSERT_EQ(addRepeated(start, step, i), t)
                    << "start " << start << " step " << step << " n "
                    << i;
                t += step;
            }
        }
    }
}

TEST(RepeatedAdd, RandomStartsMatchTheLoop)
{
    Rng rng(20241014);
    const std::vector<Seconds> all = steps();
    for (int trial = 0; trial < 400; ++trial) {
        const Seconds step = all[rng.below(all.size())];
        // Log-uniform starts from 1e-6 s to about a day.
        const Seconds start =
            trial % 10 == 0 ? 0.0 : std::exp(rng.uniform(-14.0, 11.5));
        // Mostly short walks; every 40th one up to 10^7 additions.
        const std::uint64_t n =
            trial % 40 == 1 ? between(rng, 1'000'000, 10'000'000)
                            : between(rng, 0, 20'000);
        ASSERT_EQ(addRepeated(start, step, n), loop(start, step, n))
            << "start " << start << " step " << step << " n " << n;
    }
}

TEST(RepeatedAdd, TiesAtHugeStartsMatchTheLoop)
{
    // Far from zero the dyadic steps land on exact half-ulps: the
    // first addition rounds by the start's parity, the rest are steady.
    for (int e : {33, 34, 43, 44}) {
        const Seconds base = std::ldexp(1.0, e);
        for (Seconds step : steps()) {
            for (std::uint64_t odd = 0; odd < 4; ++odd) {
                Seconds start = base;
                for (std::uint64_t i = 0; i < odd; ++i)
                    start = std::nextafter(start, 2 * base);
                for (std::uint64_t n : {5u, 1000u, 100'000u})
                    ASSERT_EQ(addRepeated(start, step, n),
                              loop(start, step, n))
                        << "start " << start << " step " << step
                        << " n " << n;
            }
        }
    }
}

TEST(RepeatedAdd, ComposesOverHugeCounts)
{
    // Counts up to 2^40 are out of reach of the loop; splitting a walk
    // anywhere must not change where it lands.
    Rng rng(7);
    const std::vector<Seconds> all = steps();
    const std::uint64_t maxCount = std::uint64_t{1} << 40;
    for (int trial = 0; trial < 300; ++trial) {
        const Seconds step = all[rng.below(all.size())];
        const Seconds start =
            trial % 5 == 0 ? 0.0 : std::exp(rng.uniform(-14.0, 11.5));
        const std::uint64_t a = between(rng, 0, maxCount);
        const std::uint64_t b = between(rng, 0, maxCount);
        EXPECT_EQ(addRepeated(addRepeated(start, step, a), step, b),
                  addRepeated(start, step, a + b))
            << "start " << start << " step " << step << " a " << a
            << " b " << b;
    }
}

TEST(RepeatedAdd, OutsideTheClosedFormIsTheLoop)
{
    for (std::uint64_t n : {0u, 1u, 7u, 5000u}) {
        EXPECT_EQ(addRepeated(-3.5, 1e-3, n), loop(-3.5, 1e-3, n));
        EXPECT_EQ(addRepeated(2.0, -1e-3, n), loop(2.0, -1e-3, n));
        EXPECT_EQ(addRepeated(2.0, 0.0, n), 2.0);
    }
    EXPECT_TRUE(std::isnan(addRepeated(0.0, std::nan(""), 3)));
    EXPECT_TRUE(std::isinf(addRepeated(1e308, 1e308, 3)));
}

} // namespace
} // namespace litmus
