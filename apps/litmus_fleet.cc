/**
 * @file
 * litmus-fleet: multi-machine serving front end — a thin CLI shim
 * over the scenario layer.
 *
 * Every run is a ScenarioSpec executed by a ScenarioRunner. The spec
 * comes from --scenario=<file> (key=value, see examples/scenarios/),
 * from the flags below, or both: flags given explicitly on the
 * command line overlay the loaded file, so
 * `litmus_fleet --scenario=peak.scenario --seed 9` reruns a scenario
 * under a different seed. A flag invocation and the equivalent
 * scenario file produce bit-identical fleet reports.
 *
 * Traffic is pluggable (--traffic=poisson|diurnal|burst|trace|azure,
 * plus the model knobs); Litmus pricing needs one calibration profile
 * per
 * machine type: --tables loads serialized profiles, --calibrate
 * sweeps every fleet type in-process (memoized via ProfileStore), and
 * --tables-out persists the active profiles.
 */

#include <iostream>
#include <string>
#include <vector>

#include "common/arg_parser.h"
#include "common/logging.h"
#include "common/strings.h"
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
                   "spec; explicit flags overlay it",
                   "")
        .addOption("machines", "machines in the fleet", "4")
        .addOption("fleet",
                   "heterogeneous fleet spec, e.g. "
                   "cascade-5218:8,icelake-4314:8 (overrides "
                   "--machines/--preset)",
                   "")
        .addOption("policy",
                   "dispatch policy: round-robin | least-loaded | "
                   "warmth-aware | cost-aware",
                   "warmth-aware")
        .addOption("traffic",
                   "traffic model: poisson | diurnal | burst | trace "
                   "| azure",
                   "poisson")
        .addOption("rate", "fleet arrival rate (invocations/s)", "2000")
        .addOption("invocations",
                   "total arrivals to serve (0 = until --duration)",
                   "10000")
        .addOption("duration",
                   "stop generating arrivals at this simulated time "
                   "(s; 0 = until --invocations)",
                   "0")
        .addOption("trace-file",
                   "arrival trace CSV to replay (traffic=trace)", "")
        .addOption("trace-rate-scale",
                   "trace replay speedup: 2 = twice as fast", "1")
        .addOption("azure-file",
                   "Azure-dataset-shaped CSV to ingest "
                   "(traffic=azure)",
                   "")
        .addOption("azure-max-rows",
                   "ingest at most this many function rows "
                   "(0 = all; rows past the cap are never read)",
                   "0")
        .addOption("azure-rate-scale",
                   "azure replay speedup: 2 = twice as fast", "1")
        .addOption("seed", "trace and jitter seed", "1")
        .addOption("epoch-us", "dispatch epoch in microseconds", "1000")
        .addOption("keepalive", "warm-container keep-alive (s)", "10")
        .addOption("threads",
                   "worker threads (0 = one per machine)", "0")
        .addOption("preset",
                   "machine type (catalog name) for a homogeneous "
                   "fleet",
                   "cascade-5218")
        .addOption("machine",
                   "key=value preset file registered into the catalog "
                   "(must set name=; becomes the homogeneous type)",
                   "")
        .addOption("tables",
                   "calibration profiles to load (comma-separated "
                   "paths): enables Litmus pricing",
                   "")
        .addOption("tables-out",
                   "write the active calibration profiles here "
                   "(one file per machine type)",
                   "")
        .addOption("faults",
                   "fault campaign: comma-separated fault.* settings "
                   "without the prefix, e.g. "
                   "crash.mtbf=20,retry=backoff,billing=provider "
                   "(scripted lists use ';' between entries: "
                   "crash.at=0.5@1;2.0)",
                   "")
        .addSwitch("calibrate",
                   "calibrate every fleet machine type in-process "
                   "(Litmus pricing without --tables)");
    args.parseOrExit(argc, argv);

    const std::string scenarioPath = args.get("scenario");
    scenario::ScenarioSpec spec;
    if (!scenarioPath.empty())
        spec = scenario::ScenarioSpec::fromFile(scenarioPath);

    // Explicit flags overlay the (possibly file-provided) spec; an
    // unset flag never overrides the file, and with no file the flag
    // defaults equal the spec defaults, so the two paths agree.
    const auto overlay = [&](const char *flag, const char *key) {
        if (args.has(flag))
            spec.set(key, args.get(flag));
    };
    if (args.has("fleet")) {
        spec.set("fleet", args.get("fleet"));
    } else if (args.has("machines") || args.has("preset") ||
               args.has("machine")) {
        // Aliases ("cascadelake", "icelake", ...) resolve inside the
        // catalog; a preset file registers its machine type first.
        std::string preset;
        const std::string overridePath = args.get("machine");
        if (!overridePath.empty())
            preset = sim::MachineCatalog::registerFromFile(overridePath)
                         .name;
        else if (args.has("preset") || scenarioPath.empty())
            preset = args.get("preset");
        if (scenarioPath.empty()) {
            spec.fleet = {{preset,
                           static_cast<unsigned>(
                               args.getIntAtLeast("machines", 1))}};
        } else {
            // Overlay only the pieces the user actually gave onto the
            // file's fleet; never let an unset flag's default clobber
            // it, and refuse a partial override of a mixed fleet.
            if (spec.fleet.size() != 1)
                fatal("litmus-fleet: --machines/--preset/--machine "
                      "cannot partially override the heterogeneous "
                      "fleet in '", scenarioPath,
                      "' — pass --fleet=type:count,... instead");
            if (preset.empty())
                preset = spec.fleet.front().machine;
            const unsigned count =
                args.has("machines")
                    ? static_cast<unsigned>(
                          args.getIntAtLeast("machines", 1))
                    : spec.fleet.front().count;
            spec.fleet = {{preset, count}};
        }
    }
    overlay("policy", "policy");
    overlay("traffic", "traffic");
    overlay("rate", "rate");
    overlay("invocations", "invocations");
    overlay("duration", "duration");
    overlay("trace-file", "trace.path");
    overlay("trace-rate-scale", "trace.rate_scale");
    overlay("azure-file", "azure.path");
    overlay("azure-max-rows", "azure.max_rows");
    overlay("azure-rate-scale", "azure.rate_scale");
    overlay("seed", "seed");
    overlay("epoch-us", "epoch_us");
    overlay("keepalive", "keepalive");
    overlay("threads", "threads");
    overlay("tables", "tables");
    overlay("tables-out", "tables_out");
    if (args.has("faults")) {
        // One flag carries the whole campaign: each comma-separated
        // piece is a fault.* scenario key without the prefix, so
        // --faults=crash.mtbf=20,retry=drop ==
        // fault.crash.mtbf=20 + fault.retry=drop. Scripted lists use
        // ';' between entries because ',' separates pieces here.
        for (const std::string &piece :
             splitNonEmpty(args.get("faults"), ',')) {
            const auto eq = piece.find('=');
            if (eq == std::string::npos || eq == 0)
                fatal("litmus-fleet: --faults piece '", piece,
                      "' is not key=value (e.g. crash.mtbf=20)");
            spec.set("fault." + piece.substr(0, eq),
                     piece.substr(eq + 1));
        }
    }
    if (args.has("calibrate"))
        spec.calibrate = true;

    scenario::ScenarioRunner runner(std::move(spec));

    std::string fleetDesc;
    for (const cluster::MachineGroup &group : runner.spec().fleet) {
        fleetDesc += (fleetDesc.empty() ? "" : ", ") + group.machine +
                     " x" + std::to_string(group.count);
    }
    inform("serving ", runner.traffic().name(), " traffic across ",
           runner.clusterConfig().totalMachines(), " machines (",
           fleetDesc, "; ",
           cluster::policyName(runner.spec().policy), ")");

    const cluster::FleetReport &report = runner.run();
    scenario::printFleetReport(std::cout, report);
    return 0;
}
