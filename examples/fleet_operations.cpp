/**
 * @file
 * Fleet operations: the full provider lifecycle of Litmus pricing.
 *
 *  1. Calibrate a machine and persist the tables artifact to disk.
 *  2. (Later / elsewhere) load the artifact and rebuild the model —
 *     no re-sweep needed.
 *  3. Serve a declarative scenario file (examples/scenarios/) through
 *     the scenario layer: a diurnal load swing on a mixed fleet.
 */

#include <iostream>

#include "common/text_table.h"
#include "core/calibration.h"
#include "core/discount_model.h"
#include "core/table_io.h"
#include "scenario/scenario_runner.h"
#include "sim/machine_catalog.h"

#ifndef LITMUS_SCENARIO_DIR
#define LITMUS_SCENARIO_DIR "examples/scenarios"
#endif

using namespace litmus;

int
main()
{
    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const std::string artifact = "/tmp/litmus-fleet-tables.txt";

    printBanner(std::cout, "Fleet operations: calibrate once, deploy, "
                           "serve");

    // 1. Calibrate and persist. A shallow sweep keeps the demo quick.
    std::cout << "calibrating (shallow sweep, levels 2-6)...\n";
    pricing::CalibrationConfig ccfg;
    ccfg.machine = machine;
    ccfg.levels = {2, 4, 6};
    const auto profile = pricing::calibrate(ccfg);
    pricing::saveProfile(artifact, profile);
    std::cout << "profile for " << profile.machine << " saved to "
              << artifact << "\n";

    // 2. Reload (as the pricing service on another node would). The
    //    profile remembers its machine type, so a mismatched load
    //    would refuse instead of mispricing.
    const auto loaded = pricing::loadProfile(artifact);
    loaded.requireMachine(machine.name);
    const pricing::DiscountModel model(loaded);
    std::cout << "profile reloaded; model for " << model.machine()
              << " rebuilt without re-sweep\n";

    // 3. A declarative scenario: the diurnal mixed-fleet file from
    //    examples/scenarios/, shrunk via the programmatic builder so
    //    the demo stays quick (any key can be overridden the same
    //    way — that is exactly what litmus_fleet's --<key> flags do).
    std::cout << "\nserving examples/scenarios/diurnal_hetero"
                 ".scenario (shrunk to 800 invocations):\n";
    scenario::ScenarioSpec spec = scenario::ScenarioSpec::fromFile(
        std::string(LITMUS_SCENARIO_DIR) + "/diurnal_hetero.scenario");
    spec.set("invocations", "800").set("threads", "2");
    scenario::ScenarioRunner runner(std::move(spec));
    scenario::printFleetReport(std::cout, runner.run());
    return 0;
}
