/**
 * @file
 * litmus-sim: the command-line face of the library.
 *
 * Subcommands:
 *   calibrate  sweep CT-Gen/MB-Gen and write the tables artifact
 *   price      load tables, run a pricing experiment, print the rows
 *   slowdown   run the co-run slowdown experiment (no pricing)
 *   suite      list the Table 1 workload suite
 *   stats      run a churn scenario and dump engine statistics
 *   scenario   run a declarative fleet scenario file
 *              (litmus-sim scenario examples/scenarios/x.scenario)
 *
 * A machine override file (--machine my-fleet.conf, key=value) can
 * reshape the simulated server for any subcommand.
 */

#include <iostream>

#include "common/arg_parser.h"
#include "common/logging.h"
#include "common/text_table.h"
#include "core/calibration.h"
#include "core/experiment.h"
#include "core/table_io.h"
#include "scenario/scenario_runner.h"
#include "sim/engine.h"
#include "sim/machine_catalog.h"
#include "workload/invoker.h"
#include "workload/suite.h"

using namespace litmus;

namespace
{

sim::MachineConfig
machineFromArgs(const ArgParser &args)
{
    // Aliases ("cascadelake", "icelake", ...) resolve inside the
    // catalog.
    const std::string preset = args.get("preset");
    const std::string overridePath = args.get("machine");
    if (!overridePath.empty()) {
        // Registered so fleet specs and profiles can name it too.
        return sim::MachineCatalog::registerFromFile(overridePath);
    }
    return sim::MachineCatalog::get(preset);
}

int
cmdCalibrate(const ArgParser &args)
{
    pricing::CalibrationConfig cfg;
    cfg.machine = machineFromArgs(args);

    const long maxLevel = args.getIntAtLeast("max-level", 2);
    const long step = args.getIntAtLeast("level-step", 1);
    cfg.levels.clear();
    for (long level = 2; level <= maxLevel; level += step)
        cfg.levels.push_back(static_cast<unsigned>(level));

    const long sharing = args.getIntAtLeast("sharing-functions", 0);
    if (sharing > 0) {
        cfg.sharingFunctions = static_cast<unsigned>(sharing);
        const long poolCpus = args.getIntAtLeast("sharing-cpus", 1);
        for (long cpu = 0; cpu < poolCpus; ++cpu)
            cfg.sharingCpus.push_back(static_cast<unsigned>(cpu));
        cfg.generatorFirstCpu = static_cast<unsigned>(poolCpus);
    }

    inform("calibrating ", cfg.machine.name, " over ",
           cfg.levels.size(), " levels per generator");
    const auto profile = pricing::calibrate(cfg);

    const std::string out = args.get("output");
    pricing::saveProfile(out, profile);
    inform("profile for ", profile.machine, " written to ", out);
    return 0;
}

int
cmdPrice(const ArgParser &args)
{
    const auto profile = pricing::loadProfile(args.get("tables"));
    const pricing::DiscountModel model(profile);

    pricing::ExperimentConfig cfg;
    cfg.machine = machineFromArgs(args);
    cfg.coRunners =
        static_cast<unsigned>(args.getIntAtLeast("co-runners", 1));
    const long poolCpus = args.getIntAtLeast("pool-cpus", 0);
    if (poolCpus > 0)
        cfg.layoutPooled(static_cast<unsigned>(poolCpus));
    else
        cfg.layoutOnePerCore();
    cfg.repetitions =
        static_cast<unsigned>(args.getIntAtLeast("reps", 1));
    cfg.sharingFactor = args.getDouble("sharing-factor");
    if (args.has("turbo"))
        cfg.policy = sim::FrequencyPolicy::Turbo;

    const auto result = pricing::runPricingExperiment(cfg, model);

    TextTable table({"function", "litmus price", "ideal price",
                     "total error"});
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.litmusPrice),
                      TextTable::num(row.idealPrice),
                      TextTable::num(row.totalError)});
    }
    table.addRow({"gmean", TextTable::num(result.gmeanLitmusPrice),
                  TextTable::num(result.gmeanIdealPrice), ""});
    table.print(std::cout);
    std::cout << "litmus discount "
              << TextTable::num(100 * result.litmusDiscount(), 1)
              << "%  ideal "
              << TextTable::num(100 * result.idealDiscount(), 1)
              << "%\n";
    return 0;
}

int
cmdSlowdown(const ArgParser &args)
{
    pricing::ExperimentConfig cfg;
    cfg.machine = machineFromArgs(args);
    cfg.coRunners =
        static_cast<unsigned>(args.getIntAtLeast("co-runners", 1));
    const long poolCpus = args.getIntAtLeast("pool-cpus", 0);
    if (poolCpus > 0)
        cfg.layoutPooled(static_cast<unsigned>(poolCpus));
    else
        cfg.layoutOnePerCore();
    cfg.repetitions =
        static_cast<unsigned>(args.getIntAtLeast("reps", 1));

    const auto result = pricing::runSlowdownExperiment(cfg);
    TextTable table({"function", "slowdown", "Tpriv", "Tshared"});
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.totalSlowdown),
                      TextTable::num(row.tPrivSlowdown),
                      TextTable::num(row.tSharedSlowdown)});
    }
    table.addRow({"gmean", TextTable::num(result.gmeanTotalSlowdown),
                  TextTable::num(result.gmeanPrivSlowdown),
                  TextTable::num(result.gmeanSharedSlowdown)});
    table.print(std::cout);
    return 0;
}

int
cmdSuite(const ArgParser &)
{
    TextTable table({"function", "language", "role", "body Minstr",
                     "memory MiB"});
    for (const auto &spec : workload::table1Suite()) {
        table.addRow(
            {spec.name, workload::languageName(spec.language),
             spec.reference ? "reference*"
                            : (spec.testSet ? "test" : "pool"),
             TextTable::num(spec.bodyInstructions() / 1e6, 0),
             TextTable::num(static_cast<double>(spec.memoryFootprint) /
                                (1024.0 * 1024.0),
                            0)});
    }
    table.print(std::cout);
    return 0;
}

int
cmdStats(const ArgParser &args)
{
    const auto machine = machineFromArgs(args);
    sim::Engine engine(machine);
    StatsRegistry registry;
    engine.stats().registerWith(registry, "engine");

    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::Pooled;
    icfg.targetCount =
        static_cast<unsigned>(args.getIntAtLeast("co-runners", 1));
    const long stats_pool = args.getIntAtLeast("pool-cpus", 0);
    const long poolCpus =
        stats_pool > 0 ? stats_pool : machine.hwThreads();
    for (long cpu = 0; cpu < poolCpus; ++cpu)
        icfg.cpuPool.push_back(static_cast<unsigned>(cpu));
    workload::Invoker invoker(engine, icfg);
    engine.onCompletion(
        [&](sim::Task &task) { invoker.handleCompletion(task); });
    invoker.start();

    const double seconds = args.getDouble("seconds");
    inform("simulating ", seconds, " s of churn with ",
           icfg.targetCount, " co-running functions");
    engine.run(seconds);

    registry.dump(std::cout);
    std::cout << "invoker: launched " << invoker.launchedCount()
              << ", deferred " << invoker.deferredCount()
              << ", committed memory "
              << static_cast<double>(invoker.committedMemory()) / (1_GiB)
              << " GiB\n";
    return 0;
}

int
cmdScenario(const ArgParser &args)
{
    if (args.positionalCount() < 2)
        fatal("the scenario command needs a scenario file: "
              "litmus-sim scenario <file>");
    // --machine applies here like everywhere else: register the
    // custom preset first so the scenario's fleet spec can name it.
    const std::string overridePath = args.get("machine");
    if (!overridePath.empty())
        (void)sim::MachineCatalog::registerFromFile(overridePath);
    scenario::ScenarioSpec spec =
        scenario::ScenarioSpec::fromFile(args.positional("arg"));
    scenario::ScenarioRunner runner(std::move(spec));
    inform("running scenario with ", runner.traffic().name(),
           " traffic on ", runner.clusterConfig().totalMachines(),
           " machines");
    scenario::printFleetReport(std::cout, runner.run());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("litmus-sim",
                   "Litmus fair-pricing simulator for serverless "
                   "platforms");
    args.addPositional("command",
                       "calibrate | price | slowdown | suite | stats "
                       "| scenario")
        .addPositional("arg", "scenario file (scenario command)")
        .addOption("preset",
                   "machine type (catalog name, e.g. cascade-5218 | "
                   "icelake-4314)",
                   "cascade-5218")
        .addOption("machine",
                   "key=value preset file (base=/name= keys) "
                   "registered into the catalog",
                   "")
        .addOption("output", "tables output path (calibrate)",
                   "litmus-tables.txt")
        .addOption("tables", "tables artifact to load (price)",
                   "litmus-tables.txt")
        .addOption("max-level", "highest generator stress level", "26")
        .addOption("level-step", "stress level stride", "4")
        .addOption("sharing-functions",
                   "Method 2: churn population during calibration", "0")
        .addOption("sharing-cpus", "Method 2: CPUs in the sharing pool",
                   "5")
        .addOption("co-runners", "co-running function count", "26")
        .addOption("pool-cpus",
                   "share this many CPUs (0 = one per core)", "0")
        .addOption("reps", "invocations per test function", "3")
        .addOption("sharing-factor",
                   "Method 1 T_private calibration factor", "1.0")
        .addOption("seconds", "simulated churn duration (stats)", "1.0")
        .addSwitch("turbo", "unpin the CPU frequency");

    args.parseOrExit(argc, argv);
    if (args.positionalCount() == 0) {
        std::cerr << args.usage();
        return 2;
    }

    const std::string command = args.positional("command");
    // Only the scenario command takes a second positional; keep the
    // old "unexpected argument" failure for everything else.
    if (command != "scenario" && args.positionalCount() > 1) {
        std::cerr << "error: unexpected argument '"
                  << args.positional("arg") << "' for command '"
                  << command << "'\n\n"
                  << args.usage();
        return 2;
    }
    if (command == "calibrate")
        return cmdCalibrate(args);
    if (command == "price")
        return cmdPrice(args);
    if (command == "slowdown")
        return cmdSlowdown(args);
    if (command == "suite")
        return cmdSuite(args);
    if (command == "stats")
        return cmdStats(args);
    if (command == "scenario")
        return cmdScenario(args);
    std::cerr << "error: unknown command '" << command << "'\n\n"
              << args.usage();
    return 2;
}
