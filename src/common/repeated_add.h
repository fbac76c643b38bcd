/**
 * @file
 * Closed-form repeated floating-point addition.
 *
 * Simulated clocks advance by one `t += quantum` per quantum, and every
 * clock on a shared grid must agree bit for bit with every other clock
 * that took the same number of steps. addRepeated() returns exactly
 * that accumulated value without performing the n additions, so a
 * clock can jump across a long idle gap and still land on the bits a
 * stepping clock reaches.
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
 * Outside the closed form's domain (negative or non-finite start,
 * non-positive or non-finite step) this is the plain loop.
 */
inline Seconds
addRepeated(Seconds start, Seconds step, std::uint64_t n)
{
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

} // namespace litmus

#endif // LITMUS_COMMON_REPEATED_ADD_H
