/**
 * @file
 * Figure 21: simultaneous multithreading — 16 physical cores exposing
 * 32 hardware threads; tables built with 50 functions over 5 physical
 * cores (10 hardware threads); 160 co-runners over all threads.
 *
 * Paper: the ideal price collapses to 47.3% of commercial (heavy
 * intra-core interference); Litmus discounts 45.4%, 1.9pp less.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 21: SMT enabled, 160 co-runners");

    auto machine = sim::MachineCatalog::get("cascade-5218");
    machine.cores = 16;
    machine.smtWays = 2; // 32 hardware threads

    std::cout << "calibrating (Method 2, 50 functions over 5 physical "
                 "cores = 10 hw threads)...\n";
    // The sharing pool covers the hardware threads of 5 physical cores.
    auto ccfg = bench::sharingCalibration(machine, 10, 50);
    const auto cal = pricing::calibrate(ccfg);
    const pricing::DiscountModel model(cal);

    // 160 functions over all 32 hardware threads.
    const auto cfg = bench::pooledExperiment(160, 32, machine);
    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    std::cout << "\npaper=    ideal price 47.3% of commercial; Litmus "
                 "discount 45.4% (1.9pp less)\n"
              << "measured= ideal price "
              << TextTable::num(100 * result.gmeanIdealPrice, 1)
              << "%; Litmus discount "
              << TextTable::num(100 * result.litmusDiscount(), 1)
              << "% (gap "
              << TextTable::num(100 * (result.idealDiscount() -
                                       result.litmusDiscount()),
                                1)
              << "pp)\n";
    return 0;
}
