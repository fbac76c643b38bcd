/**
 * @file
 * Figure 17: heavy congestion — 320 co-running functions drawn from
 * the eight most memory-intensive suite members, Method 2 tables.
 *
 * Paper: Litmus discount 20.0%, ideal 21.5%; largest Litmus discount
 * 26.0% (dyn-py) with a 2.8% error.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "workload/suite.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout,
                "Figure 17: heavy congestion, 320 co-runners");

    std::cout << "calibrating (Method 2)...\n";
    const auto cal = pricing::calibrate(bench::sharingCalibration());
    const pricing::DiscountModel model(cal);

    auto cfg = bench::pooledExperiment(320, 16);
    cfg.coRunnerPool = workload::memoryIntensiveSet();
    cfg.warmup = 0.5;

    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    double maxDiscount = 0;
    std::string maxName;
    for (const auto &row : result.rows) {
        if (1 - row.litmusPrice > maxDiscount) {
            maxDiscount = 1 - row.litmusPrice;
            maxName = row.name;
        }
    }
    bench::printDiscountSummary(result, 0.200, 0.215);
    std::cout << "paper=    largest Litmus discount 26.0% (dyn-py)\n"
              << "measured= largest Litmus discount "
              << TextTable::num(100 * maxDiscount, 1) << "% (" << maxName
              << ")\n";
    return 0;
}
