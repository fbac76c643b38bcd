/**
 * @file
 * Shared helpers for the experiment benches: standard calibrations,
 * paper-vs-measured summary lines, machine-readable JSON artifacts,
 * and environment knobs.
 *
 * Every bench prints the series the corresponding paper figure/table
 * reports, a `paper=` line with the headline numbers from the paper,
 * and a `measured=` line with ours, so EXPERIMENTS.md can be filled
 * by running the binaries. Benches on the perf trajectory also write
 * a BENCH_<name>.json artifact (BenchJson) that CI prints and
 * uploads per run.
 */

#ifndef LITMUS_BENCH_BENCH_UTIL_H
#define LITMUS_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stats.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "sim/machine_catalog.h"

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

/** Repetitions per test function (env LITMUS_REPS overrides). */
inline unsigned
reps(unsigned fallback = 5)
{
    return pricing::envOr("LITMUS_REPS", fallback);
}

/** Calibration repetitions (env LITMUS_CAL_REPS overrides). */
inline unsigned
calReps(unsigned fallback = 1)
{
    return pricing::envOr("LITMUS_CAL_REPS", fallback);
}

/**
 * The provider's dedicated-core calibration (Sections 6 / 7.1):
 * subject pinned to CPU 0, generators on CPUs 1..level. Levels scale
 * with the machine's thread count (dedicatedCalibrationFor).
 */
inline pricing::CalibrationConfig
dedicatedCalibration(
    sim::MachineConfig machine = sim::MachineCatalog::get("cascade-5218"))
{
    pricing::CalibrationConfig cfg =
        pricing::dedicatedCalibrationFor(std::move(machine));
    cfg.repetitions = calReps();
    return cfg;
}

/**
 * The Method 2 sharing calibration (Section 7.2): 50 functions churn
 * over 5 CPUs (10 per CPU) and the subject joins that pool; the
 * generators stress the cores behind the pool.
 */
inline pricing::CalibrationConfig
sharingCalibration(
    sim::MachineConfig machine = sim::MachineCatalog::get("cascade-5218"),
    unsigned pool_cpus = 5, unsigned sharing_functions = 50)
{
    pricing::CalibrationConfig cfg;
    cfg.machine = std::move(machine);
    cfg.sharingFunctions = sharing_functions;
    for (unsigned i = 0; i < pool_cpus; ++i)
        cfg.sharingCpus.push_back(i);
    cfg.generatorFirstCpu = pool_cpus;
    const unsigned headroom = cfg.machine.hwThreads() - pool_cpus;
    cfg.levels.clear();
    for (unsigned level = 2; level <= headroom && level <= 26; level += 4)
        cfg.levels.push_back(level);
    cfg.repetitions = calReps();
    return cfg;
}

/**
 * Standard Section 7.2 pooled experiment: co-runners and the test
 * function share the first @p pool_cpus CPUs.
 */
inline pricing::ExperimentConfig
pooledExperiment(unsigned co_runners = 160, unsigned pool_cpus = 16,
                 sim::MachineConfig machine =
                     sim::MachineCatalog::get("cascade-5218"))
{
    pricing::ExperimentConfig cfg;
    cfg.machine = std::move(machine);
    cfg.coRunners = co_runners;
    cfg.layoutPooled(pool_cpus);
    cfg.repetitions = reps();
    cfg.warmup = 0.3;
    return cfg;
}

/** Print one price-per-function table (Figures 11, 15-21). */
inline void
printPriceTable(const pricing::ExperimentResult &result)
{
    TextTable table({"function", "litmus price", "ideal price"});
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.litmusPrice),
                      TextTable::num(row.idealPrice)});
    }
    table.addRow({"gmean", TextTable::num(result.gmeanLitmusPrice),
                  TextTable::num(result.gmeanIdealPrice)});
    table.print(std::cout);
}

/**
 * The standard summary footer: what the paper reports next to what
 * this run measured, in two aligned greppable lines.
 */
inline void
printPaperMeasured(std::ostream &os, const std::string &paper,
                   const std::string &measured)
{
    os << "\npaper=    " << paper << "\n"
       << "measured= " << measured << "\n";
}

/** Print the paper-vs-measured discount summary. */
inline void
printDiscountSummary(const pricing::ExperimentResult &result,
                     double paper_litmus_discount,
                     double paper_ideal_discount)
{
    printPaperMeasured(
        std::cout,
        "litmus discount " +
            TextTable::num(100 * paper_litmus_discount, 1) +
            "%  ideal discount " +
            TextTable::num(100 * paper_ideal_discount, 1) + "%",
        "litmus discount " +
            TextTable::num(100 * result.litmusDiscount(), 1) +
            "%  ideal discount " +
            TextTable::num(100 * result.idealDiscount(), 1) +
            "%  gap " +
            TextTable::num(100 * (result.idealDiscount() -
                                  result.litmusDiscount()),
                           1) +
            "pp");
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
 * defaults to bench-out/BENCH_<name>.json under the working directory
 * (the directory is created on write), so every bench's artifacts
 * collect in one place for CI upload; LITMUS_BENCH_JSON overrides the
 * full path (shared by every bench, so CI can redirect a single
 * bench's artifact).
 */
class BenchJson
{
  public:
    /** @param default_path e.g. "BENCH_engine.json" (lands in
     *  bench-out/) */
    explicit BenchJson(std::string default_path)
        : path_("bench-out/" + std::move(default_path))
    {
        const char *env = std::getenv("LITMUS_BENCH_JSON");
        if (env && *env)
            path_ = env;
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
