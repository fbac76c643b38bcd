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
        // Zero steps of either sign, compared bit for bit so that a
        // signed zero cannot pass for its opposite.
        for (const Seconds start : {-0.0, 0.0, 2.0, -3.5, 1e-310}) {
            for (const Seconds step : {-0.0, 0.0}) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              addRepeated(start, step, n)),
                          std::bit_cast<std::uint64_t>(loop(start, step, n)))
                    << start << " + " << step << " x " << n;
            }
        }
    }
    EXPECT_TRUE(std::signbit(addRepeated(-0.0, 0.0, 0)));
    EXPECT_FALSE(std::signbit(addRepeated(-0.0, 0.0, 1)));
    EXPECT_FALSE(std::signbit(addRepeated(-0.0, 0.0, 7)));
    EXPECT_TRUE(std::signbit(addRepeated(-0.0, -0.0, 7)));
    EXPECT_FALSE(std::signbit(addRepeated(0.0, -0.0, 7)));
    // A zero step returns at once however many additions it stands
    // for; the loop would take hours here. The operands are read
    // through volatiles so the compiler cannot fold the loop away.
    const std::uint64_t huge = std::uint64_t{1} << 40;
    volatile Seconds opaqueStart = 12.5;
    volatile Seconds opaqueZero = 0.0;
    EXPECT_EQ(addRepeated(opaqueStart, opaqueZero, huge), 12.5);
    EXPECT_EQ(addRepeated(-opaqueStart, -opaqueZero, huge), -12.5);
    EXPECT_TRUE(std::isnan(addRepeated(0.0, std::nan(""), 3)));
    EXPECT_TRUE(std::isinf(addRepeated(1e308, 1e308, 3)));
}

// ---- coverRepeated ----------------------------------------------------

/** The cover by brute force: walk @p chunk plain additions at a time
 *  from @p start until the sum reaches @p target (at least once). */
RepeatedCover
walkCover(Seconds start, Seconds step, std::uint64_t chunk,
          Seconds target)
{
    RepeatedCover out{0, start};
    do {
        out.sum = loop(out.sum, step, chunk);
        ++out.chunks;
    } while (out.sum < target);
    return out;
}

void
expectWalkCover(Seconds start, Seconds step, std::uint64_t chunk,
                Seconds target)
{
    const RepeatedCover walk = walkCover(start, step, chunk, target);
    const RepeatedCover cover = coverRepeated(start, step, chunk, target);
    EXPECT_EQ(cover.chunks, walk.chunks)
        << "start " << start << " step " << step << " chunk " << chunk
        << " target " << target;
    EXPECT_EQ(cover.sum, walk.sum)
        << "start " << start << " step " << step << " chunk " << chunk
        << " target " << target;
}

/** Where a walk is out of reach, the definition itself: the sum after
 *  the cover reaches the target and one chunk fewer does not. */
RepeatedCover
expectMinimalCover(Seconds start, Seconds step, std::uint64_t chunk,
                   Seconds target)
{
    const RepeatedCover cover = coverRepeated(start, step, chunk, target);
    EXPECT_GT(cover.chunks, 0u) << "target " << target;
    EXPECT_EQ(cover.sum, addRepeated(start, step, cover.chunks * chunk));
    EXPECT_GE(cover.sum, target);
    if (cover.chunks > 1) {
        EXPECT_LT(addRepeated(start, step, (cover.chunks - 1) * chunk),
                  target)
            << "target " << target;
    }
    return cover;
}

TEST(RepeatedAddCover, RandomStartsMatchAWalk)
{
    Rng rng(20261017);
    std::vector<Seconds> all = steps();
    all.push_back(130e-6);
    for (int trial = 0; trial < 600; ++trial) {
        const Seconds step = all[rng.below(all.size())];
        const std::uint64_t chunk =
            std::vector<std::uint64_t>{1, 20, 26, 1000}[rng.below(4)];
        const Seconds start =
            trial % 10 == 0 ? 0.0 : std::exp(rng.uniform(-14.0, 11.5));
        // Targets from behind the start to ~200k additions ahead, off
        // the estimate's grid by a random fraction.
        const double chunks = rng.uniform(-2.0, 200'000.0 / chunk);
        const Seconds target =
            start + chunks * static_cast<double>(chunk) * step;
        expectWalkCover(start, step, chunk, target);
    }
}

TEST(RepeatedAddCover, DayScaleStartsMatchAWalk)
{
    // A day in, one 50 us addition is off by up to 7e-12 s, so the
    // quotient estimate can miss the cover by whole epochs.
    Rng rng(86400);
    for (int trial = 0; trial < 200; ++trial) {
        const Seconds start = 86400 + rng.uniform(0.0, 3600.0);
        const std::uint64_t chunk = trial % 2 == 0 ? 20 : 1;
        const Seconds target =
            start + rng.uniform(0.0, 4000.0) * static_cast<double>(chunk) *
                        50e-6;
        expectWalkCover(start, 50e-6, chunk, target);
    }
}

TEST(RepeatedAddCover, TargetsStraddlingBinadeEdgesMatchAWalk)
{
    for (int e : {-3, 0, 1, 5, 10, 14, 16, 20, 30, 33}) {
        const Seconds edge = std::ldexp(1.0, e);
        for (Seconds step : {50e-6, 1e-3}) {
            for (std::uint64_t chunk : {1u, 20u}) {
                const Seconds span = static_cast<double>(chunk) * step;
                for (double before : {1.0, 3.0, 50.0, 700.0}) {
                    const Seconds start = edge - before * span;
                    if (!(start >= 0))
                        continue;
                    for (Seconds target :
                         {std::nextafter(edge, 0.0), edge,
                          std::nextafter(edge, 2 * edge), edge + 0.5 * span,
                          edge + 3.5 * span, edge + 900 * span})
                        expectWalkCover(start, step, chunk, target);
                }
            }
        }
    }
}

TEST(RepeatedAddCover, QuotientJumpsWouldLandLate)
{
    // With 50 us epochs, an idle stretch from the 0.12 s barrier to an
    // arrival at 16384.5 s: the first covering barrier is 327,687,599
    // epochs on, while floor(gap / span) epochs already overshoot it.
    const Seconds step = 50e-6;
    const Seconds start = addRepeated(0.0, step, 2400);
    const Seconds target = 16384.5;
    const RepeatedCover cover = expectMinimalCover(start, step, 1, target);
    EXPECT_EQ(cover.chunks, 327'687'599u);
    EXPECT_EQ(static_cast<std::uint64_t>((target - start) / step),
              327'687'600u);

    // With the default 1 ms epoch, arrivals about a day after a fleet
    // went idle near t = 0: the quotient jump is late at every one of
    // these arrival times, the cover never.
    Rng rng(1);
    for (int trial = 0; trial < 200; ++trial) {
        const Seconds idleFrom =
            addRepeated(0.0, step, 20 * between(rng, 1, 100));
        const Seconds arrival = 86400 + rng.uniform(0.0, 600.0);
        const RepeatedCover day =
            expectMinimalCover(idleFrom, step, 20, arrival);
        const auto jump = static_cast<std::uint64_t>(
            (arrival - idleFrom) / (20 * step));
        EXPECT_GT(jump, day.chunks) << "arrival " << arrival;
    }
}

TEST(RepeatedAddCover, StallsPastTheClockHorizon)
{
    // Past 2^39 s a 50 us step is below half an ulp, past 2^44 s a
    // 1 ms one: the sum stops moving and the target is unreachable.
    const RepeatedCover fifty = coverRepeated(0.0, 50e-6, 20, 1e12);
    EXPECT_EQ(fifty.chunks, 0u);
    EXPECT_EQ(fifty.sum, std::ldexp(1.0, 39));
    const RepeatedCover milli = coverRepeated(0.0, 1e-3, 1, 1e14);
    EXPECT_EQ(milli.chunks, 0u);
    EXPECT_EQ(milli.sum, std::ldexp(1.0, 44));
    const RepeatedCover stuck =
        coverRepeated(std::ldexp(1.0, 39), 50e-6, 20, 6e11);
    EXPECT_EQ(stuck.chunks, 0u);
    EXPECT_EQ(stuck.sum, std::ldexp(1.0, 39));

    // Just short of the horizon the sum still moves and is covered.
    expectMinimalCover(0.0, 50e-6, 20, 4e11);
}

TEST(RepeatedAddCover, TargetBehindTheStartTakesOneChunk)
{
    for (Seconds target : {0.5, 1.0}) {
        const RepeatedCover cover = coverRepeated(1.0, 1e-3, 20, target);
        EXPECT_EQ(cover.chunks, 1u);
        EXPECT_EQ(cover.sum, addRepeated(1.0, 1e-3, 20));
    }
    // A stalled sum reports its single chunk without moving; callers
    // compare the sum with the start to tell.
    const Seconds stalled = std::ldexp(1.0, 39);
    const RepeatedCover cover = coverRepeated(stalled, 50e-6, 20, stalled);
    EXPECT_EQ(cover.chunks, 1u);
    EXPECT_EQ(cover.sum, stalled);
}

} // namespace
} // namespace litmus
