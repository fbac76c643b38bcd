/**
 * @file
 * Shared helpers for the benches: paper-vs-measured summary lines,
 * wall-clock timing, environment knobs, peak RSS, and
 * machine-readable JSON artifacts.
 *
 * Every bench prints the series the corresponding paper figure/table
 * reports, a `paper=` line with the headline numbers from the paper,
 * and a `measured=` line with ours. Benches on the perf trajectory
 * also write a BENCH_<name>.json artifact (BenchJson) that CI prints
 * and uploads per run.
 */

#ifndef LITMUS_BENCH_BENCH_UTIL_H
#define LITMUS_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/line_reader.h"
#include "common/logging.h"

namespace litmus::bench
{

/** |a - b| / |a| with a guard against an empty a. */
inline double
relativeError(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? 0.0 : 1.0;
    return std::abs(a - b) / std::abs(a);
}

/**
 * The standard summary footer: what the paper reports next to what
 * this run measured, in two aligned greppable lines. The pair opens
 * with a blank line unless @p separate is false, which continues a
 * footer already printed.
 */
inline void
printPaperMeasured(std::ostream &os, const std::string &paper,
                   const std::string &measured, bool separate = true)
{
    os << (separate ? "\npaper=    " : "paper=    ") << paper << "\n"
       << "measured= " << measured << "\n";
}

/**
 * Wall-clock seconds spent running @p fn. Bench timing only: a
 * duration measured here must never feed a simulated result.
 */
template <typename Fn>
double
wallSeconds(Fn &&fn)
{
    // LITMUS-LINT-ALLOW(wall-clock): bench timing, never a simulated result
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A positive integer knob from the environment, @p fallback when
 *  unset or empty; fatal() on anything else. */
inline unsigned
envOr(const char *name, unsigned fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    // Whole-string parse: "8x" used to silently read as 8; a typoed
    // env knob should fail loudly, not quietly misconfigure a bench.
    const std::optional<unsigned> parsed = parseNumber<unsigned>(value);
    if (!parsed || *parsed == 0)
        fatal("envOr: ", name, " must be a positive integer, got '",
              value, "'");
    return *parsed;
}

/** LITMUS_BENCH_STRICT: wall-clock and RSS-shape checks are armed
 *  unless it is exactly "0" (loaded or sanitized hosts). */
inline bool
benchStrict()
{
    const char *value = std::getenv("LITMUS_BENCH_STRICT");
    return !value || std::string_view(value) != "0";
}

/**
 * Reset the process's peak-RSS high-water mark (Linux: write "5" to
 * /proc/self/clear_refs), so a following peakRssBytes() measures only
 * the phase between the two calls. Returns false when the kernel
 * interface is unavailable (non-Linux, restricted /proc) — callers
 * should then skip RSS assertions rather than fail.
 */
inline bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    if (!clear)
        return false;
    clear << "5\n";
    return static_cast<bool>(clear.flush());
}

/**
 * The process's peak resident set size in bytes since start (or since
 * the last resetPeakRss()), from VmHWM in /proc/self/status. Returns
 * 0 when /proc is unavailable.
 */
inline std::uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    if (!status)
        return 0;
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        // "VmHWM:     12345 kB"
        std::uint64_t kib = 0;
        for (const char c : line) {
            if (c >= '0' && c <= '9')
                kib = kib * 10 + static_cast<std::uint64_t>(c - '0');
        }
        return kib * 1024;
    }
    return 0;
}

/**
 * Machine-readable bench artifact: grouped numeric metrics written as
 * one JSON object per group, in insertion order. The output path
 * is bench-out/BENCH_<name>.json under the working directory (the
 * directory is created on write), so every bench's artifacts collect
 * in one place for CI upload.
 */
class BenchJson
{
  public:
    /** @param name e.g. "BENCH_engine.json" (lands in bench-out/) */
    explicit BenchJson(std::string name)
        : path_("bench-out/" + std::move(name))
    {
    }

    /** Record one metric under a group ("" = top level). */
    void metric(const std::string &group, const std::string &key,
                double value)
    {
        groupFor(group).emplace_back(key, value);
    }

    /** Write the artifact; fatal() when unwritable. */
    void write(std::ostream &echo = std::cout) const
    {
        const std::filesystem::path parent =
            std::filesystem::path(path_).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
            if (ec)
                fatal("BenchJson: cannot create ", parent.string(),
                      ": ", ec.message());
        }
        std::ofstream json(path_);
        if (!json)
            fatal("BenchJson: cannot write ", path_);
        writeTo(json);
        echo << "json written to " << path_ << "\n";
    }

    /** The artifact's JSON text: keys escaped, non-finite values as
     *  null (JSON has no NaN or infinity). */
    void writeTo(std::ostream &json) const
    {
        json << std::setprecision(17) << "{\n";
        bool first = true;
        for (const auto &[group, metrics] : groups_) {
            if (!group.empty()) {
                json << (first ? "" : ",\n") << "  " << quoted(group)
                     << ": {\n";
                first = false;
                for (std::size_t i = 0; i < metrics.size(); ++i) {
                    json << "    " << quoted(metrics[i].first) << ": "
                         << number(metrics[i].second)
                         << (i + 1 < metrics.size() ? ",\n" : "\n");
                }
                json << "  }";
            } else {
                for (const auto &[key, value] : metrics) {
                    json << (first ? "" : ",\n") << "  " << quoted(key)
                         << ": " << number(value);
                    first = false;
                }
            }
        }
        json << "\n}\n";
    }

    const std::string &path() const { return path_; }

  private:
    using Metrics = std::vector<std::pair<std::string, double>>;

    /** A JSON string literal: quotes, backslashes and control
     *  characters escaped. */
    static std::string quoted(const std::string &text)
    {
        std::ostringstream out;
        out << '"';
        for (const char c : text) {
            if (c == '"' || c == '\\') {
                out << '\\' << c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                out << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0')
                    << static_cast<int>(static_cast<unsigned char>(c))
                    << std::dec << std::setfill(' ');
            } else {
                out << c;
            }
        }
        out << '"';
        return out.str();
    }

    /** A JSON number, or null for NaN and infinities. */
    static std::string number(double value)
    {
        if (!std::isfinite(value))
            return "null";
        std::ostringstream out;
        out << std::setprecision(17) << value;
        return out.str();
    }

    Metrics &groupFor(const std::string &group)
    {
        for (auto &[name, metrics] : groups_) {
            if (name == group)
                return metrics;
        }
        groups_.emplace_back(group, Metrics{});
        return groups_.back().second;
    }

    std::string path_;
    std::vector<std::pair<std::string, Metrics>> groups_;
};

} // namespace litmus::bench

#endif // LITMUS_BENCH_BENCH_UTIL_H
