/**
 * @file
 * The strict line reader behind every text input: scenario files,
 * machine presets, trace and azure CSVs, and litmus-tables profiles.
 *
 * Every format follows the same rules:
 *  - `#` starts a comment that runs to the end of the line;
 *  - spaces, tabs and `\r` around a line are stripped, and a line
 *    left blank is skipped, so CRLF files read like LF files;
 *  - numbers parse strictly (parseNumber): the whole field, finite
 *    and in range, or not at all;
 *  - a bad record dies with "<source>:<line>: <message>".
 *
 * The reader streams: it holds one line, never the whole input.
 */

#ifndef LITMUS_COMMON_LINE_READER_H
#define LITMUS_COMMON_LINE_READER_H

#include <charconv>
#include <cmath>
#include <iosfwd>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace litmus
{

/**
 * Strict number parse through std::from_chars: the whole of @p text
 * must be consumed and the value must be finite and in T's range. No
 * leading whitespace or '+', no hex, no inf/nan; overflow and
 * underflow are refused, never clamped.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end)
        return std::nullopt;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(value))
            return std::nullopt;
    }
    return value;
}

/** A place in a text input, named in diagnostics. */
struct SourceLine
{
    /** File path, a fixed label for in-memory text, or a flag name
     *  ("--seed", with line 0); empty for a value with no origin. A
     *  view: the reader, config or caller that owns the name must
     *  outlive it. */
    std::string_view source;

    /** 1-based line; 0 names the whole input. */
    int line = 0;

    /** fatal() with "<source>:<line>: <message>", "<source>: ..." on
     *  line 0, and the bare message without a source. */
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        if (source.empty())
            fatal(std::forward<Args>(args)...);
        if (line == 0)
            fatal(source, ": ", std::forward<Args>(args)...);
        fatal(source, ':', line, ": ", std::forward<Args>(args)...);
    }

    /** @p field as a T of at least @p floor, or fail() naming @p what
     *  ("<what> expects an integer, got 'x'", "<what> must be >= 0"). */
    template <typename T>
    T
    number(std::string_view field, std::string_view what,
           T floor = std::numeric_limits<T>::lowest()) const
    {
        if (const std::optional<T> value = parseNumber<T>(field)) {
            if (*value < floor)
                fail(what, " must be >= ", floor, ", got ", *value);
            return *value;
        }
        if constexpr (std::is_integral_v<T>) {
            // An integer that does not fit T: name the bound it broke.
            if (const auto wide = parseNumber<long long>(field)) {
                if (*wide < 0)
                    fail(what, " must be >= ", floor, ", got ", *wide);
                fail(what, " must be <= ", std::numeric_limits<T>::max(),
                     ", got ", *wide);
            }
            fail(what, " expects an integer, got '", field, "'");
        } else {
            fail(what, " expects a finite number, got '", field, "'");
        }
    }
};

/**
 * Streaming reader: yields each non-blank line, comment and
 * surrounding whitespace stripped, with its line number.
 */
class LineReader
{
  public:
    /** Read the file at @p path; fatal() when it cannot be read. */
    explicit LineReader(const std::string &path);

    /** Read @p in, named @p label in diagnostics. */
    LineReader(std::istream &in, std::string label);

    /** Read in-memory @p text, named @p label in diagnostics. */
    static LineReader fromText(std::string text, std::string label);

    ~LineReader();

    /** Advance to the next non-blank line; false at the end. */
    bool next();

    /** The current line (valid until the next next()). */
    std::string_view line() const { return line_; }

    /** Where the current line is. */
    SourceLine at() const { return {source_, lineNo_}; }

    /** fatal() naming the current line. */
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        at().fail(std::forward<Args>(args)...);
    }

    const std::string &source() const { return source_; }

  private:
    LineReader(std::unique_ptr<std::istream> owned, std::string label);

    std::unique_ptr<std::istream> owned_;
    std::istream *in_;
    std::string source_;
    std::string buffer_;
    std::string_view line_;
    int lineNo_ = 0;
};

/** @p text without the spaces, tabs and `\r` around it. */
std::string_view trimField(std::string_view text);

/** Split @p line on @p delim into trimmed fields ("a, ,b" -> a, "",
 *  b), reusing @p out's storage. */
void splitFields(std::string_view line, char delim,
                 std::vector<std::string_view> &out);

/** Split @p line on runs of spaces and tabs, reusing @p out. */
void splitWords(std::string_view line,
                std::vector<std::string_view> &out);

/** Split one list value on @p delim, dropping empty pieces and
 *  trimming nothing ("a,,b" -> {a, b}). */
std::vector<std::string> splitNonEmpty(std::string_view text, char delim);

} // namespace litmus

#endif // LITMUS_COMMON_LINE_READER_H
