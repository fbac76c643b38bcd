/**
 * @file
 * Small shared string helpers used across the CLI and scenario
 * layers.
 */

#ifndef LITMUS_COMMON_STRINGS_H
#define LITMUS_COMMON_STRINGS_H

#include <cmath>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"

namespace litmus
{

/** Split on a delimiter, dropping empty pieces ("a,,b" -> {a, b}). */
inline std::vector<std::string>
splitNonEmpty(const std::string &text, char delim)
{
    std::vector<std::string> out;
    std::istringstream stream(text);
    std::string piece;
    while (std::getline(stream, piece, delim)) {
        if (!piece.empty())
            out.push_back(piece);
    }
    return out;
}

/** Strict base-10 integer parse: the whole string must be consumed
 *  (nullopt on trailing junk or an empty string). */
inline std::optional<long>
parseLongStrict(const std::string &value)
{
    if (value.empty())
        return std::nullopt;
    char *end = nullptr;
    // LITMUS-LINT-ALLOW(raw-parse): this IS the strict parser the rule routes to
    const long parsed = std::strtol(value.c_str(), &end, 10);
    if (!end || *end != '\0')
        return std::nullopt;
    return parsed;
}

/** Strict double parse: whole string consumed AND finite — "inf" and
 *  "nan" are configuration poison (an infinite duration generates
 *  arrivals forever, NaN defeats every ordering check). */
inline std::optional<double>
parseDoubleStrict(const std::string &value)
{
    if (value.empty())
        return std::nullopt;
    char *end = nullptr;
    // LITMUS-LINT-ALLOW(raw-parse): this IS the strict parser the rule routes to
    const double parsed = std::strtod(value.c_str(), &end);
    if (!end || *end != '\0' || !std::isfinite(parsed))
        return std::nullopt;
    return parsed;
}

/**
 * Strict unsigned parse for one configuration value: fatal() on
 * junk, below @p floor, or above UINT_MAX, where a plain cast would
 * silently wrap (-4 -> 4294967292, 4294967297 -> 1). @p what names
 * the value in diagnostics, e.g. "scenario key 'threads'".
 */
inline unsigned
parseUnsignedAtLeast(const std::string &what, const std::string &value,
                     long floor)
{
    constexpr long kMax = std::numeric_limits<unsigned>::max();
    const std::optional<long> parsed = parseLongStrict(value);
    if (!parsed)
        fatal(what, " expects an integer, got '", value, "'");
    if (*parsed < floor)
        fatal(what, " must be >= ", floor, ", got ", *parsed);
    if (*parsed > kMax)
        fatal(what, " must be <= ", kMax, ", got ", *parsed);
    return static_cast<unsigned>(*parsed);
}

} // namespace litmus

#endif // LITMUS_COMMON_STRINGS_H
