/**
 * @file
 * Figure 19: a different CPU architecture — Xeon Silver 4314 (Ice
 * Lake, 16 cores, 24 MiB L3, 128 GiB), Method 2 tables built with 50
 * functions over 5 cores, then 70 co-runners over 7 cores.
 *
 * Paper: tenants pay 82.5% of the commercial price, 0.7pp from ideal.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout,
                "Figure 19: Ice Lake (Xeon Silver 4314), 70 co-runners");

    const auto machine = sim::MachineCatalog::get("icelake-4314");

    std::cout << "calibrating (Method 2 on Ice Lake)...\n";
    const auto cal =
        pricing::calibrate(bench::sharingCalibration(machine));
    const pricing::DiscountModel model(cal);

    const auto cfg = bench::pooledExperiment(70, 7, machine);
    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    std::cout << "\npaper=    Litmus price 82.5% of commercial, 0.7pp "
                 "below ideal\n"
              << "measured= Litmus price "
              << TextTable::num(100 * result.gmeanLitmusPrice, 1)
              << "% of commercial, gap "
              << TextTable::num(100 * (result.idealDiscount() -
                                       result.litmusDiscount()),
                                1)
              << "pp\n";
    return 0;
}
