/**
 * @file
 * The congestion table (Figure 5, left).
 *
 * For each language startup and each traffic generator, the table maps
 * stress levels to the startup's component slowdowns and the machine
 * L3 miss rate observed during the probe window. It also stores the
 * congestion-free baseline reading of each startup — the denominator
 * runtime probes are compared against.
 */

#ifndef LITMUS_CORE_CONGESTION_TABLE_H
#define LITMUS_CORE_CONGESTION_TABLE_H

#include <map>

#include "common/table.h"
#include "core/litmus_probe.h"
#include "workload/runtime_startup.h"
#include "workload/traffic_gen.h"

namespace litmus::pricing
{

/** One congestion-table cell: startup behaviour at a stress level. */
struct CongestionEntry
{
    double privSlowdown = 1.0;
    double sharedSlowdown = 1.0;
    double totalSlowdown = 1.0;
    double l3MissPerUs = 0.0;
};

/**
 * Provider-built congestion table.
 *
 * Keyed by (language, generator); rows are stress levels. Series are
 * exposed both as interpolating tables and as raw vectors for the
 * regression fits.
 */
class CongestionTable
{
  public:
    using Language = workload::Language;
    using GeneratorKind = workload::GeneratorKind;

    /** Store the congestion-free baseline reading for a language. */
    void setBaseline(Language lang, const ProbeReading &reading);

    /** Baseline for a language; fatal() if missing. */
    const ProbeReading &baseline(Language lang) const;

    /** Add one measured cell; levels must arrive increasing. */
    void add(Language lang, GeneratorKind gen, unsigned level,
             const CongestionEntry &entry);

    /** Entry at a (possibly fractional) level, interpolated. */
    CongestionEntry at(Language lang, GeneratorKind gen,
                       double level) const;

    /** Stress levels recorded for (lang, gen). */
    const std::vector<double> &levels(Language lang,
                                      GeneratorKind gen) const;

    /** Raw slowdown series aligned with levels(). */
    const std::vector<double> &privSeries(Language lang,
                                          GeneratorKind gen) const;
    const std::vector<double> &sharedSeries(Language lang,
                                            GeneratorKind gen) const;
    const std::vector<double> &totalSeries(Language lang,
                                           GeneratorKind gen) const;
    const std::vector<double> &l3Series(Language lang,
                                        GeneratorKind gen) const;

    /** True when (lang, gen) has at least two rows. */
    bool populated(Language lang, GeneratorKind gen) const;

  private:
    struct Series
    {
        std::vector<double> levels;
        std::vector<double> priv;
        std::vector<double> shared;
        std::vector<double> total;
        std::vector<double> l3;
    };

    using Key = std::pair<Language, GeneratorKind>;

    const Series &seriesFor(Language lang, GeneratorKind gen) const;

    std::map<Key, Series> series_;
    std::map<Language, ProbeReading> baselines_;
};

} // namespace litmus::pricing

#endif // LITMUS_CORE_CONGESTION_TABLE_H
