/**
 * @file
 * Figure 16: Method 2 — tables rebuilt in a sharing-enabled
 * environment (50 functions over 5 cores during calibration), then
 * 160 co-runners over 16 cores.
 *
 * Paper: Litmus discount 17.2%, ideal 17.4% — a 0.2pp gap.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 16: Method 2 — sharing-calibrated "
                           "tables, 160 co-runners");

    std::cout << "calibrating (50 functions over 5 shared cores)...\n";
    const auto cal = pricing::calibrate(bench::sharingCalibration());
    const pricing::DiscountModel model(cal);

    const auto cfg = bench::pooledExperiment(160, 16);
    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    bench::printDiscountSummary(result, 0.172, 0.174);
    return 0;
}
