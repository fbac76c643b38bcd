/**
 * @file
 * Figure 10: estimating a function's discount with logarithmic
 * interpolation on the observed machine L3 miss rate.
 *
 * Paper example: at a given startup slowdown, an observation matching
 * CT-Gen's L3 misses maps to ~1% discount, matching MB-Gen's to ~6%,
 * and the geometric midpoint to roughly the midpoint discount (~3.5%).
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/discount_model.h"

using namespace litmus;
using workload::GeneratorKind;
using workload::Language;

int
main()
{
    printBanner(std::cout,
                "Figure 10: log-interpolated discount vs L3 misses");

    std::cout << "calibrating...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);

    // A fixed observed startup slowdown; sweep the observed machine L3
    // miss rate between (and beyond) the two generator extremes.
    const double startupSlow = 1.12;
    const auto &base = model.baseline(Language::Python);
    const double l3Ct = model.l3Fit(Language::Python, GeneratorKind::CtGen)
                            .invert(startupSlow);
    const double l3Mb = model.l3Fit(Language::Python, GeneratorKind::MbGen)
                            .invert(startupSlow);

    auto estimateAt = [&](double l3) {
        // Build a reading with a 2% private slowdown and whatever
        // shared slowdown makes the total equal startupSlow.
        pricing::ProbeReading reading;
        reading.privCpi = base.privCpi * 1.02;
        reading.sharedCpi =
            base.totalCpi() * startupSlow - reading.privCpi;
        reading.instructions = 45e6;
        reading.machineL3MissPerUs = l3;
        return model.estimate(reading, Language::Python);
    };

    TextTable table({"observed L3/us", "blend w", "discount %"});
    const double l3Mid = std::sqrt(l3Ct * l3Mb);
    double dCt = 0, dMb = 0, dMid = 0;
    for (double l3 : {l3Ct * 0.5, l3Ct, l3Mid, l3Mb, l3Mb * 2.0}) {
        const auto est = estimateAt(l3);
        const double discount =
            1.0 - 1.0 / est.predictedTotal; // total-slowdown view
        table.addRow({TextTable::num(l3, 1),
                      TextTable::num(est.blendWeight),
                      TextTable::num(100 * discount, 2)});
        if (l3 == l3Ct)
            dCt = discount;
        if (l3 == l3Mid)
            dMid = discount;
        if (l3 == l3Mb)
            dMb = discount;
    }
    table.print(std::cout);

    std::cout << "\npaper=    CT-like ~1%, MB-like ~6%, geometric "
                 "midpoint ~3.5% (midway)\n"
              << "measured= CT-like " << TextTable::num(100 * dCt, 2)
              << "%, MB-like " << TextTable::num(100 * dMb, 2)
              << "%, midpoint " << TextTable::num(100 * dMid, 2)
              << "% (expected ~"
              << TextTable::num(100 * (dCt + dMb) / 2, 2) << "%)\n";
    return 0;
}
