/**
 * @file
 * Tenant's-eye view: Litmus applies a machine-wide discount, so
 * functions that lean on shared resources harder than the references
 * are under-compensated while compute-bound functions pocket more
 * discount than their slowdown justifies (Section 5.1's incentive).
 * This advisor quantifies that per function so a tenant can see where
 * their code sits.
 */

#include <iostream>

#include "common/text_table.h"
#include "core/calibration.h"
#include "core/experiment.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Tenant advisor: discount received vs "
                           "slowdown suffered (26 co-runners)");

    std::cout << "Calibrating and running the evaluation suite...\n";
    pricing::CalibrationConfig ccfg;
    ccfg.levels = {4, 10, 16, 22};
    const auto tables = pricing::calibrate(ccfg);
    const pricing::DiscountModel model(tables);

    pricing::ExperimentConfig cfg;
    cfg.coRunners = 26;
    cfg.layoutOnePerCore();
    cfg.repetitions = 3;
    const auto result = pricing::runPricingExperiment(cfg, model);

    TextTable table({"function", "slowdown suffered",
                     "discount received", "verdict"});
    for (const auto &row : result.rows) {
        const double suffered = 1.0 - row.idealPrice;
        const double received = 1.0 - row.litmusPrice;
        const double edge = received - suffered;
        std::string verdict;
        if (edge > 0.01)
            verdict = "over-compensated (shared-light: keep it up)";
        else if (edge < -0.01)
            verdict = "under-compensated (shared-heavy: optimize!)";
        else
            verdict = "fairly priced";
        table.addRow({row.name, TextTable::num(100 * suffered, 1) + "%",
                      TextTable::num(100 * received, 1) + "%", verdict});
    }
    table.print(std::cout);

    std::cout
        << "\nLitmus intentionally prices the *machine state*, not\n"
        << "your function: if you use fewer shared resources than the\n"
        << "reference mix, you keep the difference — the incentive\n"
        << "that nudges tenants toward cache-friendly functions.\n";
    return 0;
}
