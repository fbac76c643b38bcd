/**
 * @file
 * litmus-fleet: multi-machine serving front end — a thin CLI shim
 * over the scenario layer.
 *
 * Every run is a ScenarioSpec executed by a ScenarioRunner, and the
 * flags are the scenario keys: `--<key>=<value>` (or `--<key>
 * <value>`) for every key a scenario file accepts, e.g. `--fleet`,
 * `--fault.crash.mtbf`, `--calibrate=true`. Keys given on the command
 * line apply on top of --scenario=<file>, so
 * `litmus_fleet --scenario=peak.scenario --seed 9` reruns a scenario
 * under a different seed, and a flag invocation and the equivalent
 * scenario file produce bit-identical fleet reports. A bad value
 * fails naming its flag (`fatal: --seed: ...`).
 *
 * --machine=<preset file> registers a machine type into the catalog
 * before the spec is read, so the file or --fleet can name it.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/arg_parser.h"
#include "common/line_reader.h"
#include "common/logging.h"
#include "scenario/scenario_runner.h"
#include "sim/machine_catalog.h"

using namespace litmus;

int
main(int argc, char **argv)
{
    ArgParser args("litmus-fleet",
                   "Fleet-scale Litmus serving simulator");
    args.addOption("scenario",
                   "scenario file (key=value) providing the base "
                   "spec; key flags apply on top of it")
        .addOption("machine",
                   "key=value preset file registered into the machine "
                   "catalog before the spec is read (must set name=)");
    const std::vector<std::string> keys =
        scenario::ScenarioSpec::knownKeys();
    for (const std::string &key : keys)
        args.addOption(key, "scenario key");
    args.parseOrExit(argc, argv);

    if (!args.get("machine").empty())
        sim::MachineCatalog::registerFromFile(args.get("machine"));
    scenario::ScenarioSpec spec;
    if (!args.get("scenario").empty())
        spec = scenario::ScenarioSpec::fromFile(args.get("scenario"));
    for (const std::string &key : keys) {
        if (!args.has(key))
            continue;
        const std::string flag = "--" + key;
        spec.set(key, args.get(key), SourceLine{flag});
    }

    scenario::ScenarioRunner runner(std::move(spec));

    std::string fleetDesc;
    for (const cluster::MachineGroup &group : runner.spec().fleet) {
        fleetDesc += (fleetDesc.empty() ? "" : ", ") + group.machine +
                     " x" + std::to_string(group.count);
    }
    inform("serving ", runner.traffic().name(), " traffic across ",
           runner.clusterConfig().totalMachines(), " machines (",
           fleetDesc, "; ",
           nameOf(cluster::kDispatchPolicies, runner.spec().policy), ")");

    const cluster::FleetReport &report = runner.run();
    scenario::printFleetReport(std::cout, report);
    return 0;
}
