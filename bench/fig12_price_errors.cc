/**
 * @file
 * Figure 12: weighted error rates of Litmus prices against ideal
 * prices (26 co-runners, one function per core).
 *
 * Paper: average absolute error 0.023; P_private errors average
 * 0.018 (max 0.079), P_shared 0.007 (max 0.040).
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout,
                "Figure 12: weighted price error rates vs ideal");

    std::cout << "calibrating...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);

    pricing::ExperimentConfig cfg;
    cfg.coRunners = 26;
    cfg.layoutOnePerCore();
    cfg.repetitions = bench::reps();

    const auto result = pricing::runPricingExperiment(cfg, model);

    TextTable table({"function", "Pprivate err", "Pshared err",
                     "Ptotal err"});
    std::vector<double> privErr, sharedErr, totalErr;
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.privError),
                      TextTable::num(row.sharedError),
                      TextTable::num(row.totalError)});
        privErr.push_back(row.privError);
        sharedErr.push_back(row.sharedError);
        totalErr.push_back(row.totalError);
    }
    table.addRow({"abs geomean", TextTable::num(gmeanAbs(privErr)),
                  TextTable::num(gmeanAbs(sharedErr)),
                  TextTable::num(gmeanAbs(totalErr))});
    table.print(std::cout);

    auto maxAbs = [](const std::vector<double> &xs) {
        double m = 0;
        for (double x : xs)
            m = std::max(m, std::fabs(x));
        return m;
    };
    std::cout << "\npaper=    mean |err| 0.023 (max 0.072); Pprivate "
                 "avg 0.018 (max 0.079); Pshared avg 0.007 (max 0.040)\n"
              << "measured= mean |err| "
              << TextTable::num(meanAbs(totalErr)) << " (max "
              << TextTable::num(maxAbs(totalErr)) << "); Pprivate avg "
              << TextTable::num(meanAbs(privErr)) << "; Pshared avg "
              << TextTable::num(meanAbs(sharedErr)) << "\n";
    return 0;
}
