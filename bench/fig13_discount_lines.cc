/**
 * @file
 * Figure 13: measured T_private / T_shared slowdowns of the test
 * functions under 26 co-runners, against the component discount rates
 * Litmus pricing granted (the dotted lines in the paper's figure).
 *
 * Paper: private time extends ~5.3% with little dispersion; the
 * Litmus T_private line tracks it closely; T_shared is slowed more
 * than the estimate but the error's impact is minor.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Figure 13: component slowdowns vs Litmus "
                           "discount lines");

    std::cout << "calibrating...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);

    pricing::ExperimentConfig cfg;
    cfg.coRunners = 26;
    cfg.layoutOnePerCore();
    cfg.repetitions = bench::reps();

    const auto result = pricing::runPricingExperiment(cfg, model);

    TextTable table({"function", "Tpriv measured", "Tshared measured",
                     "Tpriv estimated", "Tshared estimated"});
    std::vector<double> estPriv, estShared;
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.tPrivSlowdown),
                      TextTable::num(row.tSharedSlowdown),
                      TextTable::num(row.predictedPriv),
                      TextTable::num(row.predictedShared)});
        estPriv.push_back(row.predictedPriv);
        estShared.push_back(row.predictedShared);
    }
    table.addRow({"gmean", TextTable::num(result.gmeanPrivSlowdown),
                  TextTable::num(result.gmeanSharedSlowdown),
                  TextTable::num(gmean(estPriv)),
                  TextTable::num(gmean(estShared))});
    table.print(std::cout);

    std::cout << "\npaper=    Tprivate extended ~5.3% with little "
                 "dispersion, tracked by the Litmus line; Tshared "
                 "underestimated but low-impact\n"
              << "measured= Tprivate +"
              << TextTable::num(100 * (result.gmeanPrivSlowdown - 1), 1)
              << "% vs estimated +"
              << TextTable::num(100 * (gmean(estPriv) - 1), 1)
              << "%; Tshared "
              << TextTable::num(result.gmeanSharedSlowdown)
              << " vs estimated "
              << TextTable::num(gmean(estShared)) << "\n";
    return 0;
}
