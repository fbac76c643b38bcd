/**
 * @file
 * Figure 15: Method 1 — temporal CPU sharing priced with the
 * dedicated-environment tables plus a switching-overhead calibration
 * factor on T_private (160 co-runners over 16 cores, ~10 per core).
 *
 * Paper: Litmus discount 14.5%, ideal 17.4% (Method 1 undershoots).
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 15: Method 1 — dedicated tables + "
                           "sharing factor, 160 co-runners");

    std::cout << "calibrating (dedicated cores)...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal.congestion, cal.performance);

    auto cfg = bench::pooledExperiment(160, 16);
    // Average 10 functions per core: divide T_private by the Figure 14
    // warmth factor before consulting the tables (Section 7.2).
    const auto machine = sim::MachineCatalog::get("cascade-5218");
    sim::OsScheduler sched(machine, machine.quantum);
    cfg.sharingFactor = sched.warmthForCount(10);

    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    bench::printDiscountSummary(result, 0.145, 0.174);
    return 0;
}
