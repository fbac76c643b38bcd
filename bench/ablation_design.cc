/**
 * @file
 * Ablation of Litmus design choices (Sections 5-6):
 *
 *  1. Two-component pricing (R_private / R_shared) vs a single total
 *     rate — the paper argues the split is what keeps errors small
 *     when T_private dominates.
 *  2. The L3-miss log blend vs using only one generator's regression
 *     (CT-only / MB-only) — the blend is what locates the machine
 *     between the two extremes.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "workload/invoker.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;
using workload::GeneratorKind;
using workload::Language;

namespace
{

struct Variant
{
    std::string name;
    double meanAbsErr = 0;
    double discount = 0;
};

/** Price one captured invocation under a model variant. */
double
variantPrice(const pricing::DiscountModel &model,
             const sim::TaskCounters &counters,
             const pricing::ProbeReading &probe, Language lang,
             int mode)
{
    const auto est = model.estimate(probe, lang);
    const double tPriv = counters.privateCycles();
    const double tShared = counters.stallSharedCycles;
    switch (mode) {
      case 0: // full Litmus
        return est.rPrivate * tPriv + est.rShared * tShared;
      case 1: // single total rate applied to all time
        return (tPriv + tShared) / est.predictedTotal;
      case 2: { // CT-only: force the blend to CT with a tiny L3 signal
        pricing::ProbeReading r = probe;
        r.machineL3MissPerUs = 1e-3;
        const auto e = model.estimate(r, lang);
        return e.rPrivate * tPriv + e.rShared * tShared;
      }
      case 3: { // MB-only: force the blend to MB with a huge L3 signal
        pricing::ProbeReading r = probe;
        r.machineL3MissPerUs = 1e9;
        const auto e = model.estimate(r, lang);
        return e.rPrivate * tPriv + e.rShared * tShared;
      }
    }
    fatal("bad mode");
}

} // namespace

int
main()
{
    printBanner(std::cout, "Ablation: Litmus design choices");

    std::cout << "calibrating...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const unsigned reps = bench::reps(3);

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::OnePerCore;
    icfg.targetCount = 26;
    for (unsigned i = 1; i <= 26; ++i)
        icfg.cpuPool.push_back(i);
    icfg.seed = 42;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    engine.run(0.15);

    std::vector<Variant> variants = {{"two-rate + L3 blend (Litmus)"},
                                     {"single total rate"},
                                     {"CT-Gen model only"},
                                     {"MB-Gen model only"}};
    std::vector<std::vector<double>> errs(variants.size());
    std::vector<std::vector<double>> prices(variants.size());

    Rng rng(9);
    for (const auto *spec : workload::testSet()) {
        const auto solo = pricing::measureSoloBaseline(machine, *spec);
        for (unsigned rep = 0; rep < reps; ++rep) {
            auto task = workload::makeInvocation(*spec, rng);
            task->setAffinity({0});
            const auto done = engine.runToCompletion(std::move(task));
            const sim::TaskCounters &counters = done->counters();

            const double ideal = solo.totalCpi() * counters.instructions;
            const auto probe = pricing::readProbe(*done);
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const double p =
                    variantPrice(model, counters, probe, spec->language,
                                 static_cast<int>(v));
                errs[v].push_back((p - ideal) / ideal);
                prices[v].push_back(p / counters.cycles);
            }
        }
    }

    TextTable table({"variant", "mean |err| vs ideal", "discount %"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        table.addRow({variants[v].name, TextTable::num(meanAbs(errs[v])),
                      TextTable::num(100 * (1 - mean(prices[v])), 1)});
    }
    table.print(std::cout);

    std::cout << "\npaper=    the component split plus the L3-miss "
                 "blend is the accuracy-bearing design (Section 6)\n"
              << "measured= full Litmus |err| "
              << TextTable::num(meanAbs(errs[0]))
              << " vs single-rate " << TextTable::num(meanAbs(errs[1]))
              << ", CT-only " << TextTable::num(meanAbs(errs[2]))
              << ", MB-only " << TextTable::num(meanAbs(errs[3]))
              << "\n";
    return 0;
}
