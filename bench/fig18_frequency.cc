/**
 * @file
 * Figure 18: unfixed CPU frequency — the Section 7.2 configuration
 * rerun under a turbo governor while the tables were built at the
 * pinned base frequency.
 *
 * Paper: Litmus discount 16.8% vs ideal 17.3%; frequency changes are
 * rare with 160 functions because all cores stay busy.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 18: unfixed CPU frequency (turbo), "
                           "160 co-runners");

    std::cout << "calibrating (Method 2, fixed frequency)...\n";
    const auto cal = pricing::calibrate(bench::sharingCalibration());
    const pricing::DiscountModel model(cal);

    auto cfg = bench::pooledExperiment(160, 16);
    cfg.policy = sim::FrequencyPolicy::Turbo;

    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    bench::printDiscountSummary(result, 0.168, 0.173);
    return 0;
}
