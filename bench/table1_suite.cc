/**
 * @file
 * Table 1: the serverless benchmark suite and language runtimes, with
 * each function's modelled characteristics and role.
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
                "Table 1: serverless benchmarks & language runtimes");

    const auto machine = sim::MachineCatalog::get("cascade-5218");

    TextTable table({"function", "language", "role", "body Minstr",
                     "L2 MPKI", "L3 ws MiB", "solo shared-share"});
    for (const auto &spec : workload::table1Suite()) {
        const auto solo = pricing::measureSoloBaseline(machine, spec);
        const auto &body = spec.body.front();
        table.addRow({
            spec.name,
            workload::languageName(spec.language),
            spec.reference ? "reference*"
                           : (spec.testSet ? "test" : "pool"),
            TextTable::num(sim::totalInstructions(spec.body) / 1e6, 0),
            TextTable::num(body.demand.l2Mpki, 2),
            TextTable::num(
                static_cast<double>(body.demand.l3WorkingSet) /
                    (1024.0 * 1024.0),
                2),
            TextTable::num(solo.sharedCpi / solo.totalCpi(), 4),
        });
    }
    table.print(std::cout);

    std::cout << "\npaper=    27 functions, 13 reference (*), three "
                 "languages (py/nj/go)\n"
              << "measured= " << workload::table1Suite().size()
              << " functions, " << workload::referenceSet().size()
              << " reference, " << workload::testSet().size()
              << " in the evaluation test set\n";
    return 0;
}
