/**
 * @file
 * Figure 14: T_private inflation as a function of the number of
 * functions temporally sharing one core.
 *
 * Paper: logarithmic growth, ~1.025 at 10 co-runners, stabilizing
 * around 20. We print both the scheduler's analytic warmth curve and
 * a measured sweep (subject + N-1 co-runners pinned to one CPU).
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

namespace
{

/** Measured T_private inflation with n functions sharing CPU 0. */
double
measuredInflation(unsigned n)
{
    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto &spec = workload::functionByName("aes-py");
    const auto solo = pricing::measureSoloBaseline(machine, spec);

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::Pooled;
    icfg.targetCount = n - 1;
    icfg.cpuPool = {0};
    icfg.seed = n;
    std::optional<workload::Invoker> invoker;
    if (n > 1) {
        invoker.emplace(engine, icfg);
        invoker->start();
        engine.run(0.05);
    }

    auto task = workload::makeNominalInvocation(spec, false);
    task->setAffinity({0});
    const sim::TaskCounters counters =
        engine.runToCompletion(std::move(task), 1200.0)->counters();
    const double privCpi =
        counters.privateCycles() / counters.instructions;
    return privCpi / solo.privCpi;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 14: temporal-sharing T_private overhead");

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    sim::OsScheduler sched(machine, machine.quantum);

    TextTable table({"co-runners/core", "warmth model",
                     "measured Tpriv"});
    double at10 = 0, at20 = 0;
    for (unsigned n : {1u, 2u, 3u, 5u, 7u, 10u, 14u, 20u, 25u}) {
        const double model = sched.warmthForCount(n);
        const double measured = measuredInflation(n);
        if (n == 10)
            at10 = measured;
        if (n == 20)
            at20 = measured;
        table.addRow({std::to_string(n), TextTable::num(model, 4),
                      TextTable::num(measured, 4)});
    }
    table.print(std::cout);

    std::cout << "\npaper=    logarithmic growth, ~1.025 at 10, "
                 "stabilizes ~20+\n"
              << "measured= " << TextTable::num(at10, 4) << " at 10, "
              << TextTable::num(at20, 4) << " at 20\n";
    return 0;
}
