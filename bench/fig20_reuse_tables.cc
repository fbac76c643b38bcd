/**
 * @file
 * Figure 20: CPU sharing overhead — 240 co-runners (15 per core)
 * priced with the tables calibrated for 10 per core, testing how the
 * Method 2 tables tolerate a co-location mismatch.
 *
 * Paper: error stays small (16.7% vs ideal 17.9%) because the
 * switching overhead saturates past ~10 co-runners (Figure 14).
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 20: 240 co-runners (15/core), "
                           "tables reused from 10/core");

    std::cout << "calibrating (Method 2 at 10 functions/core)...\n";
    const auto cal = pricing::calibrate(bench::sharingCalibration());
    const pricing::DiscountModel model(cal);

    auto cfg = bench::pooledExperiment(240, 16);
    cfg.warmup = 0.4;

    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    bench::printDiscountSummary(result, 0.167, 0.179);
    return 0;
}
