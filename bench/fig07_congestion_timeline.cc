/**
 * @file
 * Figure 7: Litmus tests tracking the machine's congestion level over
 * time as resource-intensive functions come and go.
 *
 * We run a light background population, inject a wave of
 * memory-intensive functions mid-experiment, and launch a Litmus
 * probe every 100 ms. The probe's estimated discount must rise during
 * the wave and fall after it drains.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main()
{
    printBanner(std::cout,
                "Figure 7: congestion timeline via Litmus tests");

    std::cout << "calibrating provider tables...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());
    const pricing::DiscountModel model(cal);

    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);

    // Light background: 6 compute-bound functions, churned.
    workload::InvokerConfig light;
    light.placement = workload::InvokerConfig::Placement::OnePerCore;
    light.targetCount = 6;
    light.cpuPool = {1, 2, 3, 4, 5, 6};
    light.functionPool = {&workload::functionByName("float-py"),
                          &workload::functionByName("fib-go"),
                          &workload::functionByName("auth-go")};
    light.seed = 5;
    workload::Invoker lightInvoker(engine, light);

    // The heavy wave arrives later on cores 7..26.
    workload::InvokerConfig heavy;
    heavy.placement = workload::InvokerConfig::Placement::OnePerCore;
    heavy.targetCount = 20;
    heavy.cpuPool.clear();
    for (unsigned i = 7; i < 27; ++i)
        heavy.cpuPool.push_back(i);
    heavy.functionPool = {&workload::functionByName("pager-py"),
                          &workload::functionByName("bfs-py"),
                          &workload::functionByName("fib-nj")};
    heavy.seed = 6;
    workload::Invoker heavyInvoker(engine, heavy);

    lightInvoker.start();

    TextTable table({"t (s)", "phase", "startup slowdown", "L3/us",
                     "est. discount %"});
    double quietDiscount = 0, busyDiscount = 0;
    int quietCount = 0, busyCount = 0;

    for (int tick = 0; tick < 16; ++tick) {
        const double t = engine.now();
        if (tick == 5)
            heavyInvoker.start();

        // Launch one Litmus probe (a bare Python startup) on core 0.
        auto probe = std::make_unique<sim::Task>(
            "probe", workload::startupProgram(workload::Language::Python),
            workload::probeWindow(workload::Language::Python));
        probe->setAffinity({0});
        const pricing::ProbeReading reading =
            pricing::readProbe(*engine.runToCompletion(std::move(probe)));

        const auto est =
            model.estimate(reading, workload::Language::Python);
        const double discount = 1.0 - (est.rPrivate + est.rShared) / 2.0;
        const bool busy = tick >= 6 && tick < 14;
        table.addRow({TextTable::num(t, 2), busy ? "heavy wave" : "quiet",
                      TextTable::num(est.observed.total),
                      TextTable::num(reading.machineL3MissPerUs, 1),
                      TextTable::num(100 * discount, 2)});
        if (busy) {
            busyDiscount += discount;
            ++busyCount;
        } else if (tick < 5) {
            quietDiscount += discount;
            ++quietCount;
        }

        engine.run(0.1);
    }
    table.print(std::cout);

    quietDiscount /= quietCount;
    busyDiscount /= busyCount;
    std::cout << "\npaper=    probes detect congestion rising (level "
                 ">8) during resource-intensive phases, falling (<3) "
                 "after\n"
              << "measured= mean estimated discount quiet "
              << TextTable::num(100 * quietDiscount, 2) << "% vs wave "
              << TextTable::num(100 * busyDiscount, 2) << "%\n";
    return 0;
}
