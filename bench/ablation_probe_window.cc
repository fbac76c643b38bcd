/**
 * @file
 * Ablation: Litmus-test window length.
 *
 * The paper measures the first 45M instructions of the Python startup
 * (Section 7.1). Shorter windows probe less of the memory-heavy
 * import phases (noisier congestion estimates); the full startup adds
 * nothing but latency before the price can be quoted. This sweep
 * recalibrates and re-prices at several window lengths and reports
 * the accuracy each achieves.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Ablation: probe window length");

    TextTable table({"window (Minstr)", "litmus discount %",
                     "ideal discount %", "mean |err| vs ideal"});

    const unsigned reps = bench::reps(3);
    double err45 = 0, errShort = 0;

    for (double window : {5e6, 15e6, 30e6, 45e6}) {
        pricing::CalibrationConfig ccfg = bench::dedicatedCalibration();
        ccfg.levels = {4, 10, 16, 22};
        ccfg.probeWindowOverride = window;
        const auto cal = pricing::calibrate(ccfg);
        const pricing::DiscountModel model(cal);

        pricing::ExperimentConfig cfg;
        cfg.coRunners = 26;
        cfg.layoutOnePerCore();
        cfg.repetitions = reps;
        cfg.probeWindowOverride = window;

        const auto result = pricing::runPricingExperiment(cfg, model);
        std::vector<double> errs;
        for (const auto &row : result.rows)
            errs.push_back(row.totalError);
        const double err = meanAbs(errs);
        if (window == 45e6)
            err45 = err;
        if (window == 5e6)
            errShort = err;
        table.addRow({TextTable::num(window / 1e6, 0),
                      TextTable::num(100 * result.litmusDiscount(), 1),
                      TextTable::num(100 * result.idealDiscount(), 1),
                      TextTable::num(err)});
    }
    table.print(std::cout);

    std::cout << "\npaper=    uses the first 45M instructions of the "
                 "startup (Section 7.1)\n"
              << "measured= |err| at 5M window "
              << TextTable::num(errShort) << " vs at 45M "
              << TextTable::num(err45) << "\n";
    return 0;
}
