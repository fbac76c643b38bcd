/**
 * @file
 * The calibration table (Figure 5, both halves).
 *
 * Each row is one calibration stress cell: at one (generator, stress
 * level) it holds every language startup's component slowdowns and
 * machine L3 miss rate (the congestion table, Fig. 5 left) and the
 * reference functions' gmean slowdowns (the performance table,
 * Fig. 5 right). The discount model fits startup against reference
 * slowdowns row by row, so the two halves stay aligned by
 * construction. The table also stores the congestion-free baseline
 * reading of each startup — the denominator runtime probes are
 * compared against.
 */

#ifndef LITMUS_CORE_CONGESTION_TABLE_H
#define LITMUS_CORE_CONGESTION_TABLE_H

#include <map>
#include <vector>

#include "core/litmus_probe.h"
#include "workload/runtime_startup.h"
#include "workload/traffic_gen.h"

namespace litmus::pricing
{

/** The two calibration generators, in table order. */
inline constexpr workload::GeneratorKind kCalibrationGenerators[] = {
    workload::GeneratorKind::CtGen, workload::GeneratorKind::MbGen};

/** One startup's behaviour at a stress level (congestion table). */
struct CongestionEntry
{
    double privSlowdown = 1.0;
    double sharedSlowdown = 1.0;
    double totalSlowdown = 1.0;
    double l3MissPerUs = 0.0;
};

/** Reference gmean slowdowns at a stress level (performance table). */
struct PerformanceEntry
{
    double privSlowdown = 1.0;
    double sharedSlowdown = 1.0;
    double totalSlowdown = 1.0;
};

/** Provider-built calibration table: per generator, one row per
 *  stress level in increasing order. */
class CongestionTable
{
  public:
    using Language = workload::Language;
    using GeneratorKind = workload::GeneratorKind;

    /** Everything one (generator, level) stress cell measured. */
    struct Row
    {
        unsigned level = 0;

        /** One entry per workload::allLanguages(), in that order. */
        std::vector<CongestionEntry> startups;

        /** The reference functions, measured in the same cell. */
        PerformanceEntry reference;

        const CongestionEntry &
        startup(Language lang) const
        {
            // allLanguages() lists the enumerators in declaration order.
            return startups[static_cast<std::size_t>(lang)];
        }
    };

    /** Store the congestion-free baseline reading for a language. */
    void setBaseline(Language lang, const ProbeReading &reading);

    /** Baseline for a language; fatal() if missing. */
    const ProbeReading &baseline(Language lang) const;

    /** Append a row; its level must exceed the generator's last one
     *  and it must hold one startup entry per language. */
    void add(GeneratorKind gen, Row row);

    /** Rows recorded for a generator; fatal() if none. */
    const std::vector<Row> &rows(GeneratorKind gen) const;

    /** Startup entry at a (possibly fractional) level, interpolated
     *  between rows and clamped to the recorded range. */
    CongestionEntry at(Language lang, GeneratorKind gen,
                       double level) const;

    /** True when a generator has at least two rows. */
    bool populated(GeneratorKind gen) const;

  private:
    std::map<GeneratorKind, std::vector<Row>> rows_;
    std::map<Language, ProbeReading> baselines_;
};

} // namespace litmus::pricing

#endif // LITMUS_CORE_CONGESTION_TABLE_H
