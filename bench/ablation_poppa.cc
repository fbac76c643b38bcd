/**
 * @file
 * Ablation: POPPA-style sampling vs the Litmus test (Sections 1/4).
 *
 * The paper's motivating claim: sampling-based pricing stalls every
 * co-running task during each sample, which is impractical at
 * serverless churn rates, while the Litmus test is free. This bench
 * quantifies both sides on the same 26-co-runner environment:
 * POPPA's co-runner stall overhead, and both schemes' price accuracy
 * against the ideal price.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "core/poppa.h"
#include "workload/invoker.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout, "Ablation: POPPA sampling vs Litmus test");

    std::cout << "calibrating Litmus tables...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);
    const pricing::PricingEngine pricer(model);

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto subjects = workload::testSet();
    const unsigned reps = bench::reps(3);

    sim::Engine engine(machine);
    pricing::PoppaConfig pcfg;
    pcfg.samplePeriod = 20e-3;
    pcfg.sampleWindow = 2e-3;
    pricing::PoppaSampler sampler(engine, pcfg);

    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::OnePerCore;
    icfg.targetCount = 26;
    for (unsigned i = 1; i <= 26; ++i)
        icfg.cpuPool.push_back(i);
    icfg.seed = 42;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    engine.run(0.2);

    Rng rng(7);
    std::vector<double> litmusErr, poppaErr;
    for (const auto *spec : subjects) {
        const auto solo = pricing::measureSoloBaseline(machine, *spec);
        for (unsigned rep = 0; rep < reps; ++rep) {
            auto task = workload::makeInvocation(*spec, rng);
            task->setAffinity({0});
            const auto done = engine.runToCompletion(std::move(task));
            const sim::TaskCounters &counters = done->counters();

            const auto quote = pricer.quote(
                counters, pricing::readProbe(*done), spec->language, solo);
            const double poppaPrice =
                sampler.price(counters, done->id()) / counters.cycles;
            litmusErr.push_back(quote.litmusNormalized() -
                                quote.idealNormalized());
            poppaErr.push_back(poppaPrice - quote.idealNormalized());
        }
    }

    const double wallTime = engine.now();
    const double stallShare =
        sampler.stallOverhead() / (wallTime * 26.0);

    TextTable table({"scheme", "mean |price error| vs ideal",
                     "co-runner stall overhead"});
    table.addRow({"Litmus test", TextTable::num(meanAbs(litmusErr)),
                  "0 (reuses the startup)"});
    table.addRow({"POPPA sampling", TextTable::num(meanAbs(poppaErr)),
                  TextTable::num(100 * stallShare, 2) + "% of CPU time"});
    table.print(std::cout);

    std::cout << "\npaper=    sampling requires stalling all "
                 "co-runners; impractical for short-lived functions\n"
              << "measured= POPPA stalled co-runners for "
              << TextTable::num(100 * stallShare, 2)
              << "% of their CPU time ("
              << sampler.windowsOpened() << " windows); Litmus probe "
              << "overhead is zero by construction\n";
    return 0;
}
