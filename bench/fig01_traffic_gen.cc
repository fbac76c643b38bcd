/**
 * @file
 * Figure 1: L2 and L3 misses of CT-Gen and MB-Gen across stress
 * levels, normalized to the average misses of the serverless suite.
 *
 * Paper shape: CT-Gen's L2 misses grow steeply with thread count and
 * nearly all hit the L3 (normalized L3 misses ~0); MB-Gen produces
 * massive L3 misses and *fewer* L2 misses than CT-Gen because it is
 * self-throttled by DRAM.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/suite.h"
#include "workload/traffic_gen.h"
#include "sim/machine_catalog.h"

using namespace litmus;

namespace
{

/** Machine-wide miss rates of a generator at a level (per ms). */
struct Rates
{
    double l2PerMs;
    double l3PerMs;
};

Rates
measureGenerator(workload::GeneratorKind kind, unsigned level)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    workload::spawnGenerator(engine, kind, level, 0);
    engine.run(0.02);
    const auto &mc = engine.machineCounters();
    return {mc.l3Accesses / (mc.time * 1e3),
            mc.l3Misses / (mc.time * 1e3)};
}

/** Average per-ms miss rates of solo suite functions (normalizer). */
Rates
suiteAverage()
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    double l2 = 0, l3 = 0;
    const auto &suite = workload::table1Suite();
    for (const auto &spec : suite) {
        const auto run = sim::Engine(cfg).runToCompletion(
            workload::makeNominalInvocation(spec, false));
        const Seconds wall = run->completionTime() - run->launchTime();
        l2 += run->counters().l2Misses / (wall * 1e3);
        l3 += run->counters().l3Misses / (wall * 1e3);
    }
    return {l2 / suite.size(), l3 / suite.size()};
}

} // namespace

int
main()
{
    printBanner(std::cout, "Figure 1: traffic generator "
                           "characterization (normalized misses)");

    const Rates norm = suiteAverage();

    TextTable table({"level", "CT L2(norm)", "MB L2(norm)",
                     "CT L3(norm)", "MB L3(norm)"});
    double ctL2Max = 0, mbL2Max = 0, ctL3Max = 0, mbL3Max = 0;
    for (unsigned level = 1; level <= 31; level += 3) {
        const Rates ct =
            measureGenerator(workload::GeneratorKind::CtGen, level);
        const Rates mb =
            measureGenerator(workload::GeneratorKind::MbGen, level);
        table.addRow({std::to_string(level),
                      TextTable::num(ct.l2PerMs / norm.l2PerMs, 1),
                      TextTable::num(mb.l2PerMs / norm.l2PerMs, 1),
                      TextTable::num(ct.l3PerMs / norm.l3PerMs, 1),
                      TextTable::num(mb.l3PerMs / norm.l3PerMs, 1)});
        ctL2Max = std::max(ctL2Max, ct.l2PerMs / norm.l2PerMs);
        mbL2Max = std::max(mbL2Max, mb.l2PerMs / norm.l2PerMs);
        ctL3Max = std::max(ctL3Max, ct.l3PerMs / norm.l3PerMs);
        mbL3Max = std::max(mbL3Max, mb.l3PerMs / norm.l3PerMs);
    }
    table.print(std::cout);

    std::cout << "\npaper=    CT L2 misses >> MB L2 misses (MB "
                 "self-throttled); MB L3 misses >> CT L3 misses\n"
              << "measured= peak CT L2 " << TextTable::num(ctL2Max, 0)
              << "x vs MB L2 " << TextTable::num(mbL2Max, 0)
              << "x; peak MB L3 " << TextTable::num(mbL3Max, 0)
              << "x vs CT L3 " << TextTable::num(ctL3Max, 1) << "x\n";
    return 0;
}
