/**
 * @file
 * Quickstart: the whole Litmus pipeline in one small program.
 *
 *  1. Calibrate provider tables on a simulated Xeon (a reduced sweep
 *     so this runs in seconds).
 *  2. Fit the discount model.
 *  3. Run one tenant function amid 12 co-running functions.
 *  4. Price the invocation three ways: commercial, Litmus, ideal.
 */

#include <iostream>

#include "common/text_table.h"
#include "core/calibration.h"
#include "core/experiment.h"
#include "core/pricing_model.h"
#include "workload/invoker.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    const auto machine = sim::MachineCatalog::get("cascade-5218");

    // --- Step 1: provider-side calibration ---------------------------
    std::cout << "Calibrating congestion/performance tables "
                 "(reduced sweep)...\n";
    pricing::CalibrationConfig ccfg;
    ccfg.machine = machine;
    ccfg.levels = {4, 10, 16, 22};
    const auto tables = pricing::calibrate(ccfg);

    // --- Step 2: fit the discount model -------------------------------
    const pricing::DiscountModel model(tables);
    const pricing::PricingEngine pricer(model);

    // --- Step 3: run a function in a crowded machine -------------------
    const auto &spec = workload::functionByName("pager-py");
    const auto solo = pricing::measureSoloBaseline(machine, spec);

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::OnePerCore;
    icfg.targetCount = 12;
    for (unsigned cpu = 1; cpu <= 12; ++cpu)
        icfg.cpuPool.push_back(cpu);
    workload::Invoker invoker(engine, icfg); // replaces finished co-runners
    invoker.start();
    engine.run(0.1); // let the population warm up

    Rng rng(1);
    auto task = workload::makeInvocation(spec, rng);
    task->setAffinity({0});
    const auto done = engine.runToCompletion(std::move(task));

    // --- Step 4: price it ---------------------------------------------
    const auto quote = pricer.quote(done->counters(),
                                    pricing::readProbe(*done),
                                    spec.language, solo);

    printBanner(std::cout, "Quickstart: pricing one pager-py invocation "
                           "amid 12 co-runners");
    TextTable table({"scheme", "normalized price", "discount"});
    table.addRow({"commercial (today)", "1.000", "0.0%"});
    table.addRow({"Litmus",
                  TextTable::num(quote.litmusNormalized()),
                  TextTable::num(
                      100 * (1 - quote.litmusNormalized()), 1) + "%"});
    table.addRow({"ideal (oracle)",
                  TextTable::num(quote.idealNormalized()),
                  TextTable::num(
                      100 * (1 - quote.idealNormalized()), 1) + "%"});
    table.print(std::cout);

    std::cout << "\nLitmus test observed: startup slowdown "
              << TextTable::num(quote.estimate.observed.total)
              << ", blend weight "
              << TextTable::num(quote.estimate.blendWeight)
              << " (0=CT-like, 1=MB-like)\n"
              << "Charging rates: R_private "
              << TextTable::num(quote.estimate.rPrivate) << ", R_shared "
              << TextTable::num(quote.estimate.rShared) << "\n";
    return 0;
}
