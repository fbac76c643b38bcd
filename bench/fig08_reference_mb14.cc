/**
 * @file
 * Figure 8: T_private, T_shared and total time of the reference
 * functions co-running with MB-Gen at stress level 14, normalized to
 * running alone.
 *
 * Paper shape: varying slowdowns despite a constant stress level;
 * T_shared inflations up to ~3.4x; the gmean feeds the performance
 * table.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "workload/traffic_gen.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout,
                "Figure 8: reference slowdowns at MB-Gen level 14");

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto refs = workload::referenceSet();

    TextTable table({"function", "Tprivate", "Tshared", "Ttotal"});
    std::vector<double> priv, shared, total;

    for (const auto *spec : refs) {
        const auto solo = pricing::measureSoloBaseline(machine, *spec);

        sim::Engine engine(machine);
        workload::spawnGenerator(engine, workload::GeneratorKind::MbGen,
                                 14, 1);
        engine.run(0.02);
        auto task = workload::makeNominalInvocation(*spec, false);
        task->setAffinity({0});
        const sim::TaskCounters counters =
            engine.runToCompletion(std::move(task))->counters();

        const double privCpi =
            counters.privateCycles() / counters.instructions;
        const double sharedCpi =
            counters.stallSharedCycles / counters.instructions;
        const double p = privCpi / solo.privCpi;
        const double s = sharedCpi / solo.sharedCpi;
        const double t = (privCpi + sharedCpi) / solo.totalCpi();
        priv.push_back(p);
        shared.push_back(s);
        total.push_back(t);
        table.addRow({spec->name, TextTable::num(p), TextTable::num(s),
                      TextTable::num(t)});
    }
    table.addRow({"gmean", TextTable::num(gmean(priv)),
                  TextTable::num(gmean(shared)),
                  TextTable::num(gmean(total))});
    table.print(std::cout);

    std::cout << "\npaper=    varying slowdowns at one stress level; "
                 "Tshared up to ~3.4x\n"
              << "measured= Tshared range "
              << TextTable::num(minOf(shared)) << "-"
              << TextTable::num(maxOf(shared)) << ", gmean "
              << TextTable::num(gmean(shared)) << "\n";
    return 0;
}
