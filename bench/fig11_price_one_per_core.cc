/**
 * @file
 * Figure 11: prices computed via Litmus pricing and ideal prices when
 * each test function co-runs with 26 others, one function per core,
 * normalized to the commercial price.
 *
 * Paper: average Litmus discount 10.7%, ideal discount 10.3% — a 0.4
 * percentage-point gap.
 */

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 11: Litmus vs ideal price, 26 "
                           "co-runners, one function per core");

    std::cout << "calibrating provider tables (dedicated cores)...\n";
    const auto calibration =
        pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(calibration);

    pricing::ExperimentConfig cfg;
    cfg.coRunners = 26;
    cfg.layoutOnePerCore();
    cfg.repetitions = bench::reps();

    const auto result = pricing::runPricingExperiment(cfg, model);

    bench::printPriceTable(result);
    bench::printDiscountSummary(result, 0.107, 0.103);
    return 0;
}
