/**
 * @file
 * Ablation: explicit dual-socket domains vs the folded single domain.
 *
 * The paper's testbed is a dual-socket Xeon; the default presets fold
 * it into one shared domain (DESIGN.md). This ablation models the
 * sockets explicitly ("cascade-5218-dual") and shows:
 *
 *  1. placement sensitivity the folded model cannot express — hogs on
 *     the subject's socket hurt, hogs on the remote socket do not;
 *  2. Litmus pricing keeps tracking the ideal price when calibration
 *     and serving both run on the dual-socket machine.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

namespace
{

/** pager-py slowdown with hogs on the given CPUs (dual machine). */
double
slowdownWithHogs(const sim::MachineConfig &cfg,
                 const std::vector<unsigned> &hog_cpus, double solo_cpi)
{
    sim::Engine engine(cfg);
    for (unsigned cpu : hog_cpus) {
        sim::ResourceDemand d;
        d.cpi0 = 0.6;
        d.l2Mpki = 30.0;
        d.l3WorkingSet = 16_MiB;
        d.l3MissBase = 0.8;
        d.mlp = 8.0;
        auto task =
            std::make_unique<sim::Task>("hog" + std::to_string(cpu), d);
        task->setAffinity({cpu});
        engine.add(std::move(task));
    }
    auto subject = workload::makeNominalInvocation(
        workload::functionByName("pager-py"), false);
    subject->setAffinity({0});
    const sim::TaskCounters counters =
        engine.runToCompletion(std::move(subject))->counters();
    return (counters.cycles / counters.instructions) / solo_cpi;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Ablation: dual-socket domains vs folded domain");

    const auto dual = sim::MachineCatalog::get("cascade-5218-dual");
    const auto folded = sim::MachineCatalog::get("cascade-5218");

    const auto solo = pricing::measureSoloBaseline(
        dual, workload::functionByName("pager-py"));
    const double soloCpi = solo.totalCpi();

    std::vector<unsigned> local, remote, spread;
    for (unsigned i = 0; i < 12; ++i) {
        local.push_back(1 + i);   // subject's socket (0)
        remote.push_back(16 + i); // socket 1
        spread.push_back(i % 2 == 0 ? 1 + i / 2 : 16 + i / 2);
    }

    TextTable table({"hog placement (12 hogs)", "subject slowdown"});
    table.addRow({"same socket",
                  TextTable::num(slowdownWithHogs(dual, local, soloCpi))});
    table.addRow({"spread half/half",
                  TextTable::num(slowdownWithHogs(dual, spread, soloCpi))});
    table.addRow({"remote socket",
                  TextTable::num(slowdownWithHogs(dual, remote, soloCpi))});
    const auto soloFolded = pricing::measureSoloBaseline(
        folded, workload::functionByName("pager-py"));
    table.addRow({"folded domain (same 12)",
                  TextTable::num(slowdownWithHogs(
                      folded, local, soloFolded.totalCpi()))});
    table.print(std::cout);

    // Pricing still tracks ideal on the dual-socket machine.
    std::cout << "\ncalibrating on the dual-socket machine...\n";
    pricing::CalibrationConfig ccfg;
    ccfg.machine = dual;
    ccfg.levels = {4, 8, 12};
    const auto cal = pricing::calibrate(ccfg);
    const pricing::DiscountModel model(cal);

    pricing::ExperimentConfig cfg;
    cfg.machine = dual;
    cfg.coRunners = 14; // subject's socket fills first by least-load
    cfg.layoutOnePerCore();
    cfg.repetitions = bench::reps(3);
    const auto result = pricing::runPricingExperiment(cfg, model);

    std::cout << "\npaper=    (extension; the paper folds both sockets "
                 "into its measurements)\n"
              << "measured= remote-socket hogs are harmless, local "
                 "hogs are not; dual-socket pricing gap "
              << TextTable::num(100 * (result.idealDiscount() -
                                       result.litmusDiscount()),
                                1)
              << "pp (litmus "
              << TextTable::num(100 * result.litmusDiscount(), 1)
              << "% vs ideal "
              << TextTable::num(100 * result.idealDiscount(), 1)
              << "%)\n";
    return 0;
}
