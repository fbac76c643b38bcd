#include "core/discount_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace litmus::pricing
{

DiscountModel::DiscountModel(const CalibrationProfile &profile)
    : DiscountModel(profile.congestion, profile.performance)
{
    machine_ = profile.machine;
}

void
DiscountModel::requireMachine(const std::string &machine_name) const
{
    requireMachineMatch(machine_, machine_name, "DiscountModel");
}

DiscountModel::DiscountModel(const CongestionTable &congestion,
                             const PerformanceTable &performance)
{
    for (Language lang : workload::allLanguages()) {
        baselines_[lang] = congestion.baseline(lang);
        for (GeneratorKind gen :
             {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
            if (!congestion.populated(lang, gen))
                fatal("DiscountModel: congestion table missing ",
                      workload::languageName(lang), " / ",
                      workload::generatorName(gen));
            if (!performance.populated(gen))
                fatal("DiscountModel: performance table missing ",
                      workload::generatorName(gen));

            PerLangGen f;
            // x: startup slowdowns at each level (congestion table);
            // y: reference slowdowns at the same level (perf table).
            f.priv = LinearFit::fit(congestion.privSeries(lang, gen),
                                    performance.privSeries(gen));
            f.shared =
                LinearFit::fit(congestion.sharedSeries(lang, gen),
                               performance.sharedSeries(gen));
            f.total = LinearFit::fit(congestion.totalSeries(lang, gen),
                                     performance.totalSeries(gen));
            f.l3 = LogFit::fit(congestion.l3Series(lang, gen),
                               congestion.totalSeries(lang, gen));

            const auto &totals = congestion.totalSeries(lang, gen);
            f.minTotal = *std::min_element(totals.begin(), totals.end());
            f.maxTotal = *std::max_element(totals.begin(), totals.end());

            fits_.emplace(Key{lang, gen}, std::move(f));
        }
    }
}

const DiscountModel::PerLangGen &
DiscountModel::fits(Language lang, GeneratorKind gen) const
{
    const auto it = fits_.find({lang, gen});
    if (it == fits_.end())
        panic("DiscountModel: missing fits");
    return it->second;
}

const ProbeReading &
DiscountModel::baseline(Language lang) const
{
    const auto it = baselines_.find(lang);
    if (it == baselines_.end())
        fatal("DiscountModel: no baseline for ",
              workload::languageName(lang));
    return it->second;
}

const LinearFit &
DiscountModel::perfFit(Language lang, GeneratorKind gen,
                       Component comp) const
{
    const PerLangGen &f = fits(lang, gen);
    switch (comp) {
      case Component::Private:
        return f.priv;
      case Component::Shared:
        return f.shared;
      case Component::Total:
        return f.total;
    }
    panic("DiscountModel::perfFit: bad component");
}

const LogFit &
DiscountModel::l3Fit(Language lang, GeneratorKind gen) const
{
    return fits(lang, gen).l3;
}

DiscountEstimate
DiscountModel::estimate(const ProbeReading &reading, Language lang,
                        double sharing_factor) const
{
    if (sharing_factor <= 0)
        fatal("DiscountModel::estimate: sharing factor must be positive");

    DiscountEstimate est;
    est.observed = slowdownOf(reading, baseline(lang));

    // Method 1 calibration: remove the expected temporal-sharing
    // inflation from the observation before consulting tables built in
    // a dedicated environment (Section 7.2, Method 1).
    ProbeSlowdown s = est.observed;
    s.priv /= sharing_factor;
    s.total = s.total / sharing_factor; // dominated by T_private

    const PerLangGen &ct = fits(lang, GeneratorKind::CtGen);
    const PerLangGen &mb = fits(lang, GeneratorKind::MbGen);

    // Locate the machine between the two generator extremes using the
    // observed machine L3 miss rate (Figure 10). The log fits give the
    // L3 rate each generator would produce at this startup slowdown.
    const double stCt = std::clamp(s.total, ct.minTotal, ct.maxTotal);
    const double stMb = std::clamp(s.total, mb.minTotal, mb.maxTotal);
    const double l3Ct = std::max(1e-3, ct.l3.invert(stCt));
    const double l3Mb = std::max(1e-3, mb.l3.invert(stMb));
    const double observedL3 = std::max(1e-3, reading.machineL3MissPerUs);
    est.blendWeight = logBlendWeight(observedL3, l3Ct, l3Mb);

    // Blend the per-generator predictions of reference slowdown.
    auto blend = [&](const LinearFit &fct, const LinearFit &fmb,
                     double x) {
        const double yc = fct.predict(x);
        const double ym = fmb.predict(x);
        return std::max(1.0, lerp(yc, ym, est.blendWeight));
    };

    est.predictedPriv = blend(ct.priv, mb.priv, s.priv);
    est.predictedShared = blend(ct.shared, mb.shared, s.shared);
    est.predictedTotal = blend(ct.total, mb.total, s.total);

    // Refund the sharing inflation on private time (Method 1 treats
    // temporal sharing as an additional discount factor).
    est.rPrivate = 1.0 / (est.predictedPriv * sharing_factor);
    est.rShared = 1.0 / est.predictedShared;
    return est;
}

} // namespace litmus::pricing
