/**
 * @file
 * Provider workflow: build the congestion and performance tables for a
 * machine, inspect the fitted regressions, and sanity-check the
 * discount model on synthetic observations — everything a platform
 * operator would do before enabling Litmus pricing on a fleet.
 */

#include <iostream>

#include "common/text_table.h"
#include "core/calibration.h"
#include "core/discount_model.h"
#include "sim/machine_catalog.h"

using namespace litmus;
using workload::GeneratorKind;
using workload::Language;

int
main()
{
    const auto machine = sim::MachineCatalog::get("cascade-5218");

    printBanner(std::cout,
                "Provider calibration on " + machine.name);

    pricing::CalibrationConfig ccfg;
    ccfg.machine = machine;
    ccfg.levels = {2, 6, 10, 14, 18, 22, 26};
    std::cout << "Sweeping CT-Gen and MB-Gen at "
              << ccfg.levels.size() << " stress levels...\n";
    const auto tables = pricing::calibrate(ccfg);

    // Inspect the Python congestion series.
    std::cout << "\nPython startup congestion series:\n";
    TextTable cong({"level", "CT total slowdown", "MB total slowdown",
                    "CT L3/us", "MB L3/us"});
    for (const auto &row : tables.congestion.rows(GeneratorKind::CtGen)) {
        const auto ct = tables.congestion.at(Language::Python,
                                             GeneratorKind::CtGen, row.level);
        const auto mb = tables.congestion.at(Language::Python,
                                             GeneratorKind::MbGen, row.level);
        cong.addRow({TextTable::num(row.level, 0),
                     TextTable::num(ct.totalSlowdown),
                     TextTable::num(mb.totalSlowdown),
                     TextTable::num(ct.l3MissPerUs, 1),
                     TextTable::num(mb.l3MissPerUs, 1)});
    }
    cong.print(std::cout);

    // Fit and report model quality (the operator's go/no-go check).
    const pricing::DiscountModel model(tables);
    std::cout << "\nFit quality (R^2) per language:\n";
    TextTable fits({"language", "CT shared", "MB shared", "CT total",
                    "MB total"});
    for (Language lang : workload::allLanguages()) {
        fits.addRow({workload::languageName(lang),
                     TextTable::num(model.perfFit(lang,
                                                  GeneratorKind::CtGen,
                                                  pricing::Component::Shared)
                                        .r2()),
                     TextTable::num(model.perfFit(lang,
                                                  GeneratorKind::MbGen,
                                                  pricing::Component::Shared)
                                        .r2()),
                     TextTable::num(model.perfFit(lang,
                                                  GeneratorKind::CtGen,
                                                  pricing::Component::Total)
                                        .r2()),
                     TextTable::num(model.perfFit(lang,
                                                  GeneratorKind::MbGen,
                                                  pricing::Component::Total)
                                        .r2())});
    }
    fits.print(std::cout);

    // Spot-check the model on synthetic observations.
    std::cout << "\nSpot checks (Python baseline + synthetic "
                 "congestion):\n";
    const auto &base = model.baseline(Language::Python);
    TextTable spot({"startup slowdown", "observed L3/us", "blend",
                    "R_private", "R_shared"});
    for (double l3 : {20.0, 150.0, 900.0}) {
        pricing::ProbeReading reading;
        reading.privCpi = base.privCpi * 1.03;
        reading.sharedCpi = base.sharedCpi * 1.6;
        reading.instructions = 45e6;
        reading.machineL3MissPerUs = l3;
        const auto est = model.estimate(reading, Language::Python);
        spot.addRow({TextTable::num(est.observed.total),
                     TextTable::num(l3, 0),
                     TextTable::num(est.blendWeight),
                     TextTable::num(est.rPrivate),
                     TextTable::num(est.rShared)});
    }
    spot.print(std::cout);

    std::cout << "\nTables ready: deploy the model and start probing.\n";
    return 0;
}
