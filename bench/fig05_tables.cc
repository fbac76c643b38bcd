/**
 * @file
 * Figure 5: the provider's congestion and performance tables.
 *
 * Paper shape: slowdowns grow monotonically with stress level; MB-Gen
 * slows T_shared far more than CT-Gen; T_private slowdowns stay at
 * percent level.
 */

#include <iostream>

#include "bench_util.h"
#include "core/calibration.h"

using namespace litmus;
using workload::GeneratorKind;
using workload::Language;

int
main()
{
    printBanner(std::cout,
                "Figure 5: congestion and performance tables");

    std::cout << "calibrating (dedicated cores)...\n";
    const auto cal = pricing::calibrate(bench::dedicatedCalibration());

    for (Language lang : workload::allLanguages()) {
        std::cout << "\nCongestion table — " << workload::languageName(lang)
                  << " startup (slowdowns vs solo)\n";
        TextTable table({"level", "CT Tpriv", "CT Tshared", "CT L3/us",
                         "MB Tpriv", "MB Tshared", "MB L3/us"});
        for (const auto &row : cal.congestion.rows(GeneratorKind::CtGen)) {
            const auto ct = cal.congestion.at(lang, GeneratorKind::CtGen,
                                              row.level);
            const auto mb = cal.congestion.at(lang, GeneratorKind::MbGen,
                                              row.level);
            table.addRow({TextTable::num(row.level, 0),
                          TextTable::num(ct.privSlowdown),
                          TextTable::num(ct.sharedSlowdown),
                          TextTable::num(ct.l3MissPerUs, 1),
                          TextTable::num(mb.privSlowdown),
                          TextTable::num(mb.sharedSlowdown),
                          TextTable::num(mb.l3MissPerUs, 1)});
        }
        table.print(std::cout);
    }

    std::cout << "\nPerformance table — reference gmean slowdowns\n";
    TextTable perf({"level", "CT Tpriv", "CT Tshared", "CT total",
                    "MB Tpriv", "MB Tshared", "MB total"});
    const auto &ctRows = cal.congestion.rows(GeneratorKind::CtGen);
    const auto &mbRows = cal.congestion.rows(GeneratorKind::MbGen);
    for (std::size_t i = 0; i < ctRows.size(); ++i) {
        const pricing::PerformanceEntry &ct = ctRows[i].reference;
        const pricing::PerformanceEntry &mb = mbRows[i].reference;
        perf.addRow({TextTable::num(ctRows[i].level, 0),
                     TextTable::num(ct.privSlowdown),
                     TextTable::num(ct.sharedSlowdown),
                     TextTable::num(ct.totalSlowdown),
                     TextTable::num(mb.privSlowdown),
                     TextTable::num(mb.sharedSlowdown),
                     TextTable::num(mb.totalSlowdown)});
    }
    perf.print(std::cout);

    const double ctShared =
        ctRows.back().startup(Language::Python).sharedSlowdown;
    const double mbShared =
        mbRows.back().startup(Language::Python).sharedSlowdown;
    std::cout << "\npaper=    monotone growth; MB Tshared slowdowns >> "
                 "CT at matched levels (e.g. 1.88-2.04 vs 1.08-1.19)\n"
              << "measured= py startup Tshared at top level: CT "
              << TextTable::num(ctShared) << " vs MB "
              << TextTable::num(mbShared) << "\n";
    return 0;
}
