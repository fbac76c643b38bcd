/**
 * @file
 * Closed-form repeated floating-point addition.
 *
 * Simulated clocks advance by one `t += quantum` per quantum, and every
 * clock on a shared grid must agree bit for bit with every other clock
 * that took the same number of steps. addRepeated() returns exactly
 * that accumulated value without performing the n additions, so a
 * clock can jump across a long idle gap and still land on the bits a
 * stepping clock reaches, and coverRepeated() finds the first such
 * clock at or past a target time without walking to it.
 */

#ifndef LITMUS_COMMON_REPEATED_ADD_H
#define LITMUS_COMMON_REPEATED_ADD_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/units.h"

namespace litmus
{

/**
 * The value of @p start after @p n sequential `start += step` under
 * IEEE-754 round-to-nearest-even: bit-identical to the loop, in
 * O(binades crossed) instead of O(n).
 *
 * Inside one binade [2^e, 2^(e+1)) every double is a multiple of one
 * ulp u, so `fl(t + step) = t + d` where d is @p step rounded to a
 * multiple of u. d is the same for every t in the binade except when
 * step/u ends in exactly .5: then the tie goes to the even neighbour,
 * so the first increment depends on t's parity but every later one
 * (from an even t) does not. Two real additions therefore fix d, and
 * k further additions are the exact product k*d, as long as the sum
 * stays clear of the binade's top. Near the top, and while t is too
 * close to zero for step to fit inside t's binade, the additions are
 * performed one by one.
 *
 * A zero step (either sign) costs one addition: after the first, adding
 * a zero never changes the value, signed zeros included. Outside the
 * closed form's domain (negative or non-finite start, negative or
 * non-finite step) this is the plain loop.
 */
inline Seconds
addRepeated(Seconds start, Seconds step, std::uint64_t n)
{
    if (step == 0)
        return n ? start + step : start;
    Seconds t = start;
    if (!(start >= 0) || !(step > 0) || !std::isfinite(start) ||
        !std::isfinite(step)) {
        for (; n > 0; --n)
            t += step;
        return t;
    }
    constexpr std::uint64_t kExponentMask = 0x7ff0000000000000ULL;
    constexpr std::uint64_t kTopExponent = 0x7fe0000000000000ULL;
    while (n > 0) {
        const std::uint64_t exponent =
            std::bit_cast<std::uint64_t>(t) & kExponentMask;
        // The binade holding t: [2^e, 2^(e+1)) for normal t, and the
        // uniformly spaced subnormal range [0, DBL_MIN) otherwise. The
        // last binade's top overflows, so it is walked one by one.
        const Seconds top =
            exponent == 0
                ? std::numeric_limits<double>::min()
                : 2 * std::bit_cast<double>(exponent);
        const Seconds t1 = t + step;
        const Seconds t2 = t1 + step;
        if (n == 1 || exponent == kTopExponent || !(t2 < top)) {
            // One addition left, or the second one leaves the binade.
            t = t1;
            --n;
            continue;
        }
        // t1 came from an in-binade addition, so it is already even
        // when step is a tie; t2 - t1 is the steady increment (exact:
        // both are multiples of u within a factor of two).
        n -= 2;
        const Seconds d = t2 - t1;
        if (d == 0)
            return t2;
        // Stop two increments short of the top, so every jumped
        // addition rounds on this binade's grid.
        const Seconds gap = top - t2;
        const auto fit = static_cast<std::uint64_t>(gap / d);
        const std::uint64_t k = std::min(n, fit > 2 ? fit - 2 : 0);
        // k * d < gap is a multiple of u below 2^e, hence exact, and
        // so is the sum.
        t = t2 + static_cast<double>(k) * d;
        n -= k;
    }
    return t;
}

/** What coverRepeated() found. */
struct RepeatedCover
{
    /** Chunks taken; 0 when the sum stalls short of the target. */
    std::uint64_t chunks = 0;

    /** addRepeated(start, step, chunks * chunk): the first sum at or
     *  past the target, or where the sum stalls. */
    Seconds sum = 0;
};

/**
 * The least n >= 1 for which addRepeated(start, step, n * chunk)
 * reaches @p target, with that sum: the first barrier a walk of
 * @p chunk additions at a time from @p start finds at or past the
 * target. The sum is monotone in n, so this jumps in closed form to
 * two chunks short of the quotient estimate, then gallops forward in
 * doubling strides and bisects the last one — O(log n) addRepeated()
 * calls however far the rounded sum drifts from the estimate (a jump
 * that already reaches the target bisects within it).
 *
 * Once @p step is below half an ulp of the sum, an addition no longer
 * moves it; if that happens short of the target, the result has
 * chunks == 0 and the stalled sum. Requires start >= 0, step > 0 and
 * chunk > 0, all finite.
 */
inline RepeatedCover
coverRepeated(Seconds start, Seconds step, std::uint64_t chunk,
              Seconds target)
{
    // Strides are capped so that no chunk count or addition count can
    // overflow: 2^56 additions carry any sum past its stall point.
    const std::uint64_t maxStride =
        std::max<std::uint64_t>(1, (std::uint64_t{1} << 56) / chunk);
    std::uint64_t taken = 0;
    Seconds base = start;
    std::uint64_t stride = 1;
    const double gap = (target - start) / (static_cast<double>(chunk) * step);
    if (gap > 3) {
        const std::uint64_t jump =
            gap < static_cast<double>(maxStride)
                ? static_cast<std::uint64_t>(gap) - 2
                : maxStride;
        const Seconds landing = addRepeated(start, step, jump * chunk);
        if (landing < target) {
            taken = jump;
            base = landing;
        } else {
            stride = jump;
        }
    }
    // Invariant: base = the sum after `taken` chunks, short of target.
    Seconds landing = addRepeated(base, step, stride * chunk);
    while (landing < target) {
        if (landing == base)
            return {0, base};
        taken += stride;
        base = landing;
        stride = std::min(2 * stride, maxStride);
        landing = addRepeated(base, step, stride * chunk);
    }
    // The cover lies within (taken, taken + stride].
    std::uint64_t lo = 0;
    while (stride - lo > 1) {
        const std::uint64_t mid = lo + (stride - lo) / 2;
        const Seconds probe = addRepeated(base, step, mid * chunk);
        if (probe >= target) {
            stride = mid;
            landing = probe;
        } else {
            lo = mid;
        }
    }
    return {taken + stride, landing};
}

} // namespace litmus

#endif // LITMUS_COMMON_REPEATED_ADD_H
