/**
 * @file
 * paper_figures: runs the paper's figure, table and ablation
 * reproductions (Figures 1-21, Table 1 and four ablations) and the
 * fleet figures (Figures 22-26, fleet_figures.cc).
 *
 *   paper_figures                 every figure, in table order
 *   paper_figures fig16_method2   the named figures, in argument order
 *
 * An unknown id exits 2 and lists the known ones. LITMUS_REPS and
 * LITMUS_CAL_REPS set the repetition counts; fleet_figures.cc lists
 * the fleet figures' knobs.
 *
 * The table below is a baseline plus per-figure overrides: Figures 11
 * and 15-21 are one motion (calibrate, fit the discount model, price
 * the test set, print the price table and the paper-vs-measured
 * footer), so each is a row of settings; every other figure is a
 * function of its own. Figures asking for the same
 * calibration sweep or priced experiment share one run of it, so a
 * figure prints the same numbers alone or in a batch.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "common/text_table.h"
#include "core/calibration.h"
#include "core/discount_model.h"
#include "core/experiment.h"
#include "core/poppa.h"
#include "core/profile_store.h"
#include "fleet_figures.h"
#include "sim/machine_catalog.h"
#include "workload/invoker.h"
#include "workload/runtime_startup.h"
#include "workload/suite.h"
#include "workload/traffic_gen.h"

namespace litmus::bench
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

/** Repetitions per test function (env LITMUS_REPS overrides). */
unsigned
reps(unsigned fallback = 5)
{
    return envOr("LITMUS_REPS", fallback);
}

/** Calibration repetitions (env LITMUS_CAL_REPS overrides). */
unsigned
calReps(unsigned fallback = 1)
{
    return envOr("LITMUS_CAL_REPS", fallback);
}

/**
 * The provider's dedicated-core calibration (Sections 6 / 7.1):
 * subject pinned to CPU 0, generators on CPUs 1..level. Levels scale
 * with the machine's thread count (dedicatedCalibrationFor).
 */
pricing::CalibrationConfig
dedicatedCalibration(
    sim::MachineConfig machine = sim::MachineCatalog::get("cascade-5218"))
{
    pricing::CalibrationConfig cfg =
        pricing::dedicatedCalibrationFor(std::move(machine));
    cfg.repetitions = calReps();
    return cfg;
}

/**
 * The Method 2 sharing calibration (Section 7.2): 50 functions churn
 * over 5 CPUs (10 per CPU) and the subject joins that pool; the
 * generators stress the cores behind the pool.
 */
pricing::CalibrationConfig
sharingCalibration(
    sim::MachineConfig machine = sim::MachineCatalog::get("cascade-5218"),
    unsigned pool_cpus = 5, unsigned sharing_functions = 50)
{
    pricing::CalibrationConfig cfg;
    cfg.machine = std::move(machine);
    cfg.sharingFunctions = sharing_functions;
    for (unsigned i = 0; i < pool_cpus; ++i)
        cfg.sharingCpus.push_back(i);
    cfg.generatorFirstCpu = pool_cpus;
    const unsigned headroom = cfg.machine.hwThreads() - pool_cpus;
    cfg.levels.clear();
    for (unsigned level = 2; level <= headroom && level <= 26; level += 4)
        cfg.levels.push_back(level);
    cfg.repetitions = calReps();
    return cfg;
}

/** Figure 21's machine: 16 physical cores, 32 hardware threads. */
sim::MachineConfig
smtMachine()
{
    auto machine = sim::MachineCatalog::get("cascade-5218");
    machine.cores = 16;
    machine.smtWays = 2;
    return machine;
}

/** The calibration sweeps figures share. */
enum class Sweep
{
    /** dedicatedCalibration() on the Cascade Lake preset. */
    Dedicated,
    /** Method 2 (Section 7.2): 50 functions churn over 5 CPUs and the
     *  subject joins that pool. */
    Method2,
    /** Method 2 on the Xeon Silver 4314 (Figure 19). */
    Method2IceLake,
    /** Method 2 over the 10 hardware threads of 5 SMT cores (Figure
     *  21). */
    Method2Smt,
};

pricing::CalibrationConfig
sweepConfig(Sweep sweep)
{
    switch (sweep) {
      case Sweep::Dedicated:
        return dedicatedCalibration();
      case Sweep::Method2:
        return sharingCalibration();
      case Sweep::Method2IceLake:
        return sharingCalibration(sim::MachineCatalog::get("icelake-4314"));
      case Sweep::Method2Smt:
        // The sharing pool covers the hardware threads of 5 physical
        // cores.
        return sharingCalibration(smtMachine(), 10, 50);
    }
    fatal("unknown calibration sweep");
}

/** @p sweep's calibration, run on first use and kept for the process
 *  (pricing::ProfileStore). */
const pricing::CalibrationProfile &
calibrated(Sweep sweep)
{
    // The store keeps each profile for the life of the process.
    return *pricing::ProfileStore::instance().getOrCalibrate(
        "paper-sweep-" + std::to_string(static_cast<int>(sweep)),
        [sweep] { return pricing::calibrate(sweepConfig(sweep)); });
}

/** Figures 2-3 and 11-13's experiment: 26 co-runners, one per core. */
pricing::ExperimentConfig
onePerCoreExperiment()
{
    pricing::ExperimentConfig cfg;
    cfg.coRunners = 26;
    cfg.layoutOnePerCore();
    cfg.repetitions = reps();
    return cfg;
}

/** Figures 2-3's slowdowns under onePerCoreExperiment(), measured
 *  once per process. */
const pricing::ExperimentResult &
onePerCoreSlowdown()
{
    static const pricing::ExperimentResult result =
        pricing::runSlowdownExperiment(onePerCoreExperiment());
    return result;
}

/** @p experiment priced against @p sweep's tables; each pair runs
 *  once per process. */
const pricing::ExperimentResult &
priced(Sweep sweep, pricing::ExperimentConfig (*experiment)())
{
    static std::map<std::pair<Sweep, pricing::ExperimentConfig (*)()>,
                    pricing::ExperimentResult>
        results;
    const auto [it, fresh] = results.try_emplace({sweep, experiment});
    if (fresh) {
        const pricing::DiscountModel model(calibrated(sweep));
        it->second = pricing::runPricingExperiment(experiment(), model);
    }
    return it->second;
}

// Figures with a body of their own, in table order.

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

/**
 * Figure 1: L2 and L3 misses of CT-Gen and MB-Gen across stress
 * levels, normalized to the average misses of the serverless suite.
 *
 * Paper shape: CT-Gen's L2 misses grow steeply with thread count and
 * nearly all hit the L3 (normalized L3 misses ~0); MB-Gen produces
 * massive L3 misses and *fewer* L2 misses than CT-Gen because it is
 * self-throttled by DRAM.
 */
void
fig01TrafficGen()
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

    printPaperMeasured(std::cout,
                       "CT L2 misses >> MB L2 misses (MB "
                       "self-throttled); MB L3 misses >> CT L3 misses",
                       "peak CT L2 " + TextTable::num(ctL2Max, 0) +
                           "x vs MB L2 " + TextTable::num(mbL2Max, 0) +
                           "x; peak MB L3 " + TextTable::num(mbL3Max, 0) +
                           "x vs CT L3 " + TextTable::num(ctL3Max, 1) +
                           "x");
}

/**
 * Figure 2: execution time of the test functions when co-running with
 * 26 others (one per core), normalized to running alone.
 *
 * Paper: up to ~35% slowdown, gmean 11.5%.
 */
void
fig02CorunSlowdown()
{
    printBanner(std::cout,
                "Figure 2: co-run slowdown with 26 co-runners");

    const auto &result = onePerCoreSlowdown();

    TextTable table({"function", "normalized exec time"});
    double maxSlow = 0;
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.totalSlowdown)});
        maxSlow = std::max(maxSlow, row.totalSlowdown);
    }
    table.addRow({"gmean", TextTable::num(result.gmeanTotalSlowdown)});
    table.print(std::cout);

    printPaperMeasured(
        std::cout, "gmean slowdown 11.5%, max ~35%",
        "gmean slowdown " +
            TextTable::num(100 * (result.gmeanTotalSlowdown - 1), 1) +
            "%, max " + TextTable::num(100 * (maxSlow - 1), 1) + "%");
}

/**
 * Figure 3: T_private and T_shared per instruction under 26
 * co-runners, normalized to running alone.
 *
 * Paper: T_shared +181% on average (max +488%); T_private +4%.
 */
void
fig03TimeSplit()
{
    printBanner(std::cout, "Figure 3: normalized T_private & T_shared "
                           "with 26 co-runners");

    const auto &result = onePerCoreSlowdown();

    TextTable table({"function", "Tprivate", "Tshared"});
    double maxShared = 0;
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.tPrivSlowdown),
                      TextTable::num(row.tSharedSlowdown)});
        maxShared = std::max(maxShared, row.tSharedSlowdown);
    }
    table.addRow({"gmean", TextTable::num(result.gmeanPrivSlowdown),
                  TextTable::num(result.gmeanSharedSlowdown)});
    table.print(std::cout);

    printPaperMeasured(
        std::cout, "Tshared +181% avg (max +488%), Tprivate +4%",
        "Tshared +" +
            TextTable::num(100 * (result.gmeanSharedSlowdown - 1), 0) +
            "% avg (max +" + TextTable::num(100 * (maxShared - 1), 0) +
            "%), Tprivate +" +
            TextTable::num(100 * (result.gmeanPrivSlowdown - 1), 1) + "%");
}

/**
 * Figure 4: distribution of execution time between T_private and
 * T_shared when running alone.
 *
 * Paper: compute-bound functions up to 99.96% private (float-py);
 * memory-bound functions (fib-nj, graph workloads) markedly lower.
 */
void
fig04TimeDistribution()
{
    printBanner(std::cout,
                "Figure 4: T_private / T_shared distribution (solo)");

    const auto machine = sim::MachineCatalog::get("cascade-5218");

    TextTable table({"function", "Tprivate %", "Tshared %"});
    double meanShared = 0;
    double floatShare = 0, fibNjShare = 0;
    const auto &suite = workload::table1Suite();
    for (const auto &spec : suite) {
        const auto solo = pricing::measureSoloBaseline(machine, spec);
        const double shared = solo.sharedCpi / solo.totalCpi();
        meanShared += shared;
        if (spec.name == "float-py")
            floatShare = shared;
        if (spec.name == "fib-nj")
            fibNjShare = shared;
        table.addRow({spec.name, TextTable::num(100 * (1 - shared), 2),
                      TextTable::num(100 * shared, 2)});
    }
    meanShared /= static_cast<double>(suite.size());
    table.addRow({"mean", TextTable::num(100 * (1 - meanShared), 2),
                  TextTable::num(100 * meanShared, 2)});
    table.print(std::cout);

    printPaperMeasured(
        std::cout, "float-py up to 99.96% private; fib-nj clearly "
                   "shared-heavy",
        "float-py " + TextTable::num(100 * (1 - floatShare), 2) +
            "% private; fib-nj " + TextTable::num(100 * fibNjShare, 1) +
            "% shared");
}

/**
 * Figure 5: the provider's congestion and performance tables.
 *
 * Paper shape: slowdowns grow monotonically with stress level; MB-Gen
 * slows T_shared far more than CT-Gen; T_private slowdowns stay at
 * percent level.
 */
void
fig05Tables()
{
    printBanner(std::cout,
                "Figure 5: congestion and performance tables");

    std::cout << "calibrating (dedicated cores)...\n";
    const auto &cal = calibrated(Sweep::Dedicated);

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
    printPaperMeasured(std::cout,
                       "monotone growth; MB Tshared slowdowns >> CT at "
                       "matched levels (e.g. 1.88-2.04 vs 1.08-1.19)",
                       "py startup Tshared at top level: CT " +
                           TextTable::num(ctShared) + " vs MB " +
                           TextTable::num(mbShared));
}

/** Per-ms IPC samples of the startup program of a language. */
std::vector<double>
sampleStartupIpc(workload::Language lang)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    sim::Task &task = engine.add(std::make_unique<sim::Task>(
        "startup", workload::startupProgram(lang)));

    std::vector<double> ipc;
    sim::TaskCounters prev;
    // The engine holds only this task, so it is live while any is.
    while (engine.taskCount() > 0) {
        engine.run(1e-3);
        if (engine.taskCount() == 0)
            break;
        const sim::TaskCounters now = task.counters();
        const sim::TaskCounters delta = now.since(prev);
        if (delta.cycles > 0)
            ipc.push_back(delta.instructions / delta.cycles);
        prev = now;
        if (ipc.size() > 200)
            break;
    }
    return ipc;
}

/**
 * Figure 6: IPC of serverless functions during their startup phase,
 * per language, sampled once per millisecond on a solo run.
 *
 * Paper shape: functions of the same language have nearly identical
 * startup IPC timelines; Python ~19 ms, Node.js ~97 ms, Go ~6 ms.
 */
void
fig06StartupIpc()
{
    printBanner(std::cout,
                "Figure 6: startup-phase IPC timelines per language");

    for (workload::Language lang : workload::allLanguages()) {
        const auto ipc = sampleStartupIpc(lang);
        std::cout << "\n" << workload::languageName(lang) << " startup ("
                  << ipc.size() + 1 << " ms):\n  t(ms): IPC  ";
        for (std::size_t i = 0; i < ipc.size(); ++i) {
            if (i % 8 == 0)
                std::cout << "\n  ";
            std::cout << i << ":" << TextTable::num(ipc[i], 2) << "  ";
        }
        std::cout << "\n";
    }

    const auto py = sampleStartupIpc(workload::Language::Python);
    const auto nj = sampleStartupIpc(workload::Language::NodeJs);
    const auto go = sampleStartupIpc(workload::Language::Go);
    printPaperMeasured(
        std::cout, "durations ~19 ms (py) / ~97 ms (nj) / ~6 ms (go); "
                   "IPC fluctuates ~0.5-3.0",
        "durations ~" + std::to_string(py.size() + 1) + " / ~" +
            std::to_string(nj.size() + 1) + " / ~" +
            std::to_string(go.size() + 1) + " ms; IPC range " +
            TextTable::num(*std::min_element(py.begin(), py.end()), 2) +
            "-" +
            TextTable::num(*std::max_element(py.begin(), py.end()), 2) +
            " (python)");
}

/**
 * Figure 7: Litmus tests tracking the machine's congestion level over
 * time as resource-intensive functions come and go.
 *
 * We run a light background population, inject a wave of
 * memory-intensive functions mid-experiment, and launch a Litmus
 * probe every 100 ms. The probe's estimated discount must rise during
 * the wave and fall after it drains.
 */
void
fig07CongestionTimeline()
{
    printBanner(std::cout,
                "Figure 7: congestion timeline via Litmus tests");

    std::cout << "calibrating provider tables...\n";
    const pricing::DiscountModel model(calibrated(Sweep::Dedicated));

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
    printPaperMeasured(std::cout,
                       "probes detect congestion rising (level >8) "
                       "during resource-intensive phases, falling (<3) "
                       "after",
                       "mean estimated discount quiet " +
                           TextTable::num(100 * quietDiscount, 2) +
                           "% vs wave " +
                           TextTable::num(100 * busyDiscount, 2) + "%");
}

/**
 * Figure 8: T_private, T_shared and total time of the reference
 * functions co-running with MB-Gen at stress level 14, normalized to
 * running alone.
 *
 * Paper shape: varying slowdowns despite a constant stress level;
 * T_shared inflations up to ~3.4x; the gmean feeds the performance
 * table.
 */
void
fig08ReferenceMb14()
{
    printBanner(std::cout,
                "Figure 8: reference slowdowns at MB-Gen level 14");

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto refs = workload::referenceSet();

    TextTable table({"function", "Tprivate", "Tshared", "Ttotal"});
    std::vector<double> priv, shared, total;

    for (const auto *spec : refs) {
        const auto solo = pricing::measureSoloBaseline(machine, *spec);

        sim::Engine engine(machine);
        workload::spawnGenerator(engine, workload::GeneratorKind::MbGen,
                                 14, 1);
        engine.run(0.02);
        auto task = workload::makeNominalInvocation(*spec, false);
        task->setAffinity({0});
        const sim::TaskCounters counters =
            engine.runToCompletion(std::move(task))->counters();

        const double privCpi =
            counters.privateCycles() / counters.instructions;
        const double sharedCpi =
            counters.stallSharedCycles / counters.instructions;
        const double p = privCpi / solo.privCpi;
        const double s = sharedCpi / solo.sharedCpi;
        const double t = (privCpi + sharedCpi) / solo.totalCpi();
        priv.push_back(p);
        shared.push_back(s);
        total.push_back(t);
        table.addRow({spec->name, TextTable::num(p), TextTable::num(s),
                      TextTable::num(t)});
    }
    table.addRow({"gmean", TextTable::num(gmean(priv)),
                  TextTable::num(gmean(shared)),
                  TextTable::num(gmean(total))});
    table.print(std::cout);

    printPaperMeasured(
        std::cout, "varying slowdowns at one stress level; Tshared up "
                   "to ~3.4x",
        "Tshared range " + TextTable::num(minOf(shared)) + "-" +
            TextTable::num(maxOf(shared)) + ", gmean " +
            TextTable::num(gmean(shared)));
}

/**
 * Figure 9: correlation between the Python startup's slowdown and the
 * reference applications' slowdown, per traffic generator and time
 * component.
 *
 * Paper: linear fits with R^2 between 0.836 and 0.989; distinct CT
 * and MB lines.
 */
void
fig09Regression()
{
    printBanner(std::cout, "Figure 9: startup-vs-reference slowdown "
                           "regressions (Python startup)");

    std::cout << "calibrating...\n";
    const pricing::DiscountModel model(calibrated(Sweep::Dedicated));

    TextTable table({"component", "generator", "slope", "intercept",
                     "R^2"});
    double minR2 = 1.0;
    for (auto comp : {pricing::Component::Private,
                      pricing::Component::Shared,
                      pricing::Component::Total}) {
        const char *compName =
            comp == pricing::Component::Private
                ? "Tprivate"
                : (comp == pricing::Component::Shared ? "Tshared"
                                                      : "Ttotal");
        for (GeneratorKind gen :
             {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
            const LinearFit &fit =
                model.perfFit(Language::Python, gen, comp);
            minR2 = std::min(minR2, fit.r2());
            const std::string genName(
                nameOf(workload::kGeneratorNames, gen));
            table.addRow({compName, genName,
                          TextTable::num(fit.slope()),
                          TextTable::num(fit.intercept()),
                          TextTable::num(fit.r2())});
        }
    }
    table.print(std::cout);

    printPaperMeasured(std::cout, "R^2 in 0.836-0.989 across the six fits",
                       "minimum R^2 " + TextTable::num(minR2));
}

/**
 * Figure 10: estimating a function's discount with logarithmic
 * interpolation on the observed machine L3 miss rate.
 *
 * Paper example: at a given startup slowdown, an observation matching
 * CT-Gen's L3 misses maps to ~1% discount, matching MB-Gen's to ~6%,
 * and the geometric midpoint to roughly the midpoint discount (~3.5%).
 */
void
fig10Interpolation()
{
    printBanner(std::cout,
                "Figure 10: log-interpolated discount vs L3 misses");

    std::cout << "calibrating...\n";
    const pricing::DiscountModel model(calibrated(Sweep::Dedicated));

    // A fixed observed startup slowdown; sweep the observed machine L3
    // miss rate between (and beyond) the two generator extremes.
    const double startupSlow = 1.12;
    const auto &base = model.baseline(Language::Python);
    const double l3Ct = model.l3Fit(Language::Python, GeneratorKind::CtGen)
                            .invert(startupSlow);
    const double l3Mb = model.l3Fit(Language::Python, GeneratorKind::MbGen)
                            .invert(startupSlow);

    auto estimateAt = [&](double l3) {
        // Build a reading with a 2% private slowdown and whatever
        // shared slowdown makes the total equal startupSlow.
        pricing::ProbeReading reading;
        reading.privCpi = base.privCpi * 1.02;
        reading.sharedCpi =
            base.totalCpi() * startupSlow - reading.privCpi;
        reading.instructions = 45e6;
        reading.machineL3MissPerUs = l3;
        return model.estimate(reading, Language::Python);
    };

    TextTable table({"observed L3/us", "blend w", "discount %"});
    const double l3Mid = std::sqrt(l3Ct * l3Mb);
    double dCt = 0, dMb = 0, dMid = 0;
    for (double l3 : {l3Ct * 0.5, l3Ct, l3Mid, l3Mb, l3Mb * 2.0}) {
        const auto est = estimateAt(l3);
        const double discount =
            1.0 - 1.0 / est.predictedTotal; // total-slowdown view
        table.addRow({TextTable::num(l3, 1),
                      TextTable::num(est.blendWeight),
                      TextTable::num(100 * discount, 2)});
        if (l3 == l3Ct)
            dCt = discount;
        if (l3 == l3Mid)
            dMid = discount;
        if (l3 == l3Mb)
            dMb = discount;
    }
    table.print(std::cout);

    printPaperMeasured(
        std::cout, "CT-like ~1%, MB-like ~6%, geometric midpoint ~3.5% "
                   "(midway)",
        "CT-like " + TextTable::num(100 * dCt, 2) + "%, MB-like " +
            TextTable::num(100 * dMb, 2) + "%, midpoint " +
            TextTable::num(100 * dMid, 2) + "% (expected ~" +
            TextTable::num(100 * (dCt + dMb) / 2, 2) + "%)");
}

/**
 * Figure 12: weighted error rates of Litmus prices against ideal
 * prices (26 co-runners, one function per core).
 *
 * Paper: average absolute error 0.023; P_private errors average
 * 0.018 (max 0.079), P_shared 0.007 (max 0.040).
 */
void
fig12PriceErrors()
{
    printBanner(std::cout,
                "Figure 12: weighted price error rates vs ideal");

    std::cout << "calibrating...\n";
    const auto &result = priced(Sweep::Dedicated, onePerCoreExperiment);

    TextTable table({"function", "Pprivate err", "Pshared err",
                     "Ptotal err"});
    std::vector<double> privErr, sharedErr, totalErr;
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.privError),
                      TextTable::num(row.sharedError),
                      TextTable::num(row.totalError)});
        privErr.push_back(row.privError);
        sharedErr.push_back(row.sharedError);
        totalErr.push_back(row.totalError);
    }
    table.addRow({"abs geomean", TextTable::num(gmeanAbs(privErr)),
                  TextTable::num(gmeanAbs(sharedErr)),
                  TextTable::num(gmeanAbs(totalErr))});
    table.print(std::cout);

    auto maxAbs = [](const std::vector<double> &xs) {
        double m = 0;
        for (double x : xs)
            m = std::max(m, std::fabs(x));
        return m;
    };
    printPaperMeasured(std::cout,
                       "mean |err| 0.023 (max 0.072); Pprivate avg 0.018 "
                       "(max 0.079); Pshared avg 0.007 (max 0.040)",
                       "mean |err| " + TextTable::num(meanAbs(totalErr)) +
                           " (max " + TextTable::num(maxAbs(totalErr)) +
                           "); Pprivate avg " +
                           TextTable::num(meanAbs(privErr)) +
                           "; Pshared avg " +
                           TextTable::num(meanAbs(sharedErr)));
}

/**
 * Figure 13: measured T_private / T_shared slowdowns of the test
 * functions under 26 co-runners, against the component discount rates
 * Litmus pricing granted (the dotted lines in the paper's figure).
 *
 * Paper: private time extends ~5.3% with little dispersion; the
 * Litmus T_private line tracks it closely; T_shared is slowed more
 * than the estimate but the error's impact is minor.
 */
void
fig13DiscountLines()
{
    printBanner(std::cout, "Figure 13: component slowdowns vs Litmus "
                           "discount lines");

    std::cout << "calibrating...\n";
    const auto &result = priced(Sweep::Dedicated, onePerCoreExperiment);

    TextTable table({"function", "Tpriv measured", "Tshared measured",
                     "Tpriv estimated", "Tshared estimated"});
    std::vector<double> estPriv, estShared;
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.tPrivSlowdown),
                      TextTable::num(row.tSharedSlowdown),
                      TextTable::num(row.predictedPriv),
                      TextTable::num(row.predictedShared)});
        estPriv.push_back(row.predictedPriv);
        estShared.push_back(row.predictedShared);
    }
    table.addRow({"gmean", TextTable::num(result.gmeanPrivSlowdown),
                  TextTable::num(result.gmeanSharedSlowdown),
                  TextTable::num(gmean(estPriv)),
                  TextTable::num(gmean(estShared))});
    table.print(std::cout);

    printPaperMeasured(
        std::cout,
        "Tprivate extended ~5.3% with little dispersion, tracked by the "
        "Litmus line; Tshared underestimated but low-impact",
        "Tprivate +" +
            TextTable::num(100 * (result.gmeanPrivSlowdown - 1), 1) +
            "% vs estimated +" +
            TextTable::num(100 * (gmean(estPriv) - 1), 1) + "%; Tshared " +
            TextTable::num(result.gmeanSharedSlowdown) + " vs estimated " +
            TextTable::num(gmean(estShared)));
}

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

/**
 * Figure 14: T_private inflation as a function of the number of
 * functions temporally sharing one core.
 *
 * Paper: logarithmic growth, ~1.025 at 10 co-runners, stabilizing
 * around 20. We print both the scheduler's analytic warmth curve and
 * a measured sweep (subject + N-1 co-runners pinned to one CPU).
 */
void
fig14SwitchOverhead()
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

    printPaperMeasured(std::cout,
                       "logarithmic growth, ~1.025 at 10, stabilizes ~20+",
                       TextTable::num(at10, 4) + " at 10, " +
                           TextTable::num(at20, 4) + " at 20");
}

/**
 * Table 1: the serverless benchmark suite and language runtimes, with
 * each function's modelled characteristics and role.
 */
void
table1Suite()
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

    printPaperMeasured(
        std::cout, "27 functions, 13 reference (*), three languages "
                   "(py/nj/go)",
        std::to_string(workload::table1Suite().size()) + " functions, " +
            std::to_string(workload::referenceSet().size()) +
            " reference, " + std::to_string(workload::testSet().size()) +
            " in the evaluation test set");
}

struct Variant
{
    std::string name;
    double meanAbsErr = 0;
    double discount = 0;
};

/** Price one captured invocation under a model variant. */
double
variantPrice(const pricing::DiscountModel &model,
             const sim::TaskCounters &counters,
             const pricing::ProbeReading &probe, Language lang,
             int mode)
{
    const auto est = model.estimate(probe, lang);
    const double tPriv = counters.privateCycles();
    const double tShared = counters.stallSharedCycles;
    switch (mode) {
      case 0: // full Litmus
        return est.rPrivate * tPriv + est.rShared * tShared;
      case 1: // single total rate applied to all time
        return (tPriv + tShared) / est.predictedTotal;
      case 2: { // CT-only: force the blend to CT with a tiny L3 signal
        pricing::ProbeReading r = probe;
        r.machineL3MissPerUs = 1e-3;
        const auto e = model.estimate(r, lang);
        return e.rPrivate * tPriv + e.rShared * tShared;
      }
      case 3: { // MB-only: force the blend to MB with a huge L3 signal
        pricing::ProbeReading r = probe;
        r.machineL3MissPerUs = 1e9;
        const auto e = model.estimate(r, lang);
        return e.rPrivate * tPriv + e.rShared * tShared;
      }
    }
    fatal("bad mode");
}

/**
 * Ablation of Litmus design choices (Sections 5-6):
 *
 *  1. Two-component pricing (R_private / R_shared) vs a single total
 *     rate — the paper argues the split is what keeps errors small
 *     when T_private dominates.
 *  2. The L3-miss log blend vs using only one generator's regression
 *     (CT-only / MB-only) — the blend is what locates the machine
 *     between the two extremes.
 */
void
ablationDesign()
{
    printBanner(std::cout, "Ablation: Litmus design choices");

    std::cout << "calibrating...\n";
    const pricing::DiscountModel model(calibrated(Sweep::Dedicated));

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const unsigned reps = bench::reps(3);

    sim::Engine engine(machine);
    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::OnePerCore;
    icfg.targetCount = 26;
    for (unsigned i = 1; i <= 26; ++i)
        icfg.cpuPool.push_back(i);
    icfg.seed = 42;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    engine.run(0.15);

    std::vector<Variant> variants = {{"two-rate + L3 blend (Litmus)"},
                                     {"single total rate"},
                                     {"CT-Gen model only"},
                                     {"MB-Gen model only"}};
    std::vector<std::vector<double>> errs(variants.size());
    std::vector<std::vector<double>> prices(variants.size());

    Rng rng(9);
    for (const auto *spec : workload::testSet()) {
        const auto solo = pricing::measureSoloBaseline(machine, *spec);
        for (unsigned rep = 0; rep < reps; ++rep) {
            auto task = workload::makeInvocation(*spec, rng);
            task->setAffinity({0});
            const auto done = engine.runToCompletion(std::move(task));
            const sim::TaskCounters &counters = done->counters();

            const double ideal = solo.totalCpi() * counters.instructions;
            const auto probe = pricing::readProbe(*done);
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const double p =
                    variantPrice(model, counters, probe, spec->language,
                                 static_cast<int>(v));
                errs[v].push_back((p - ideal) / ideal);
                prices[v].push_back(p / counters.cycles);
            }
        }
    }

    TextTable table({"variant", "mean |err| vs ideal", "discount %"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        table.addRow({variants[v].name, TextTable::num(meanAbs(errs[v])),
                      TextTable::num(100 * (1 - mean(prices[v])), 1)});
    }
    table.print(std::cout);

    printPaperMeasured(std::cout,
                       "the component split plus the L3-miss blend is the "
                       "accuracy-bearing design (Section 6)",
                       "full Litmus |err| " + TextTable::num(meanAbs(errs[0])) +
                           " vs single-rate " +
                           TextTable::num(meanAbs(errs[1])) + ", CT-only " +
                           TextTable::num(meanAbs(errs[2])) + ", MB-only " +
                           TextTable::num(meanAbs(errs[3])));
}

/** pager-py slowdown with hogs on the given CPUs (dual machine). */
double
slowdownWithHogs(const sim::MachineConfig &cfg,
                 const std::vector<unsigned> &hog_cpus, double solo_cpi)
{
    sim::Engine engine(cfg);
    for (unsigned cpu : hog_cpus) {
        sim::ResourceDemand d;
        d.cpi0 = 0.6;
        d.l2Mpki = 30.0;
        d.l3WorkingSet = 16_MiB;
        d.l3MissBase = 0.8;
        d.mlp = 8.0;
        auto task =
            std::make_unique<sim::Task>("hog" + std::to_string(cpu), d);
        task->setAffinity({cpu});
        engine.add(std::move(task));
    }
    auto subject = workload::makeNominalInvocation(
        workload::functionByName("pager-py"), false);
    subject->setAffinity({0});
    const sim::TaskCounters counters =
        engine.runToCompletion(std::move(subject))->counters();
    return (counters.cycles / counters.instructions) / solo_cpi;
}

/**
 * Ablation: explicit dual-socket domains vs the folded single domain.
 *
 * The paper's testbed is a dual-socket Xeon; the default presets fold
 * it into one shared domain (DESIGN.md). This ablation models the
 * sockets explicitly ("cascade-5218-dual") and shows:
 *
 *  1. placement sensitivity the folded model cannot express — hogs on
 *     the subject's socket hurt, hogs on the remote socket do not;
 *  2. Litmus pricing keeps tracking the ideal price when calibration
 *     and serving both run on the dual-socket machine.
 */
void
ablationNuma()
{
    printBanner(std::cout,
                "Ablation: dual-socket domains vs folded domain");

    const auto dual = sim::MachineCatalog::get("cascade-5218-dual");
    const auto folded = sim::MachineCatalog::get("cascade-5218");

    const auto solo = pricing::measureSoloBaseline(
        dual, workload::functionByName("pager-py"));
    const double soloCpi = solo.totalCpi();

    std::vector<unsigned> local, remote, spread;
    for (unsigned i = 0; i < 12; ++i) {
        local.push_back(1 + i);   // subject's socket (0)
        remote.push_back(16 + i); // socket 1
        spread.push_back(i % 2 == 0 ? 1 + i / 2 : 16 + i / 2);
    }

    TextTable table({"hog placement (12 hogs)", "subject slowdown"});
    table.addRow({"same socket",
                  TextTable::num(slowdownWithHogs(dual, local, soloCpi))});
    table.addRow({"spread half/half",
                  TextTable::num(slowdownWithHogs(dual, spread, soloCpi))});
    table.addRow({"remote socket",
                  TextTable::num(slowdownWithHogs(dual, remote, soloCpi))});
    const auto soloFolded = pricing::measureSoloBaseline(
        folded, workload::functionByName("pager-py"));
    table.addRow({"folded domain (same 12)",
                  TextTable::num(slowdownWithHogs(
                      folded, local, soloFolded.totalCpi()))});
    table.print(std::cout);

    // Pricing still tracks ideal on the dual-socket machine.
    std::cout << "\ncalibrating on the dual-socket machine...\n";
    pricing::CalibrationConfig ccfg;
    ccfg.machine = dual;
    ccfg.levels = {4, 8, 12};
    const auto cal = pricing::calibrate(ccfg);
    const pricing::DiscountModel model(cal);

    pricing::ExperimentConfig cfg;
    cfg.machine = dual;
    cfg.coRunners = 14; // subject's socket fills first by least-load
    cfg.layoutOnePerCore();
    cfg.repetitions = reps(3);
    const auto result = pricing::runPricingExperiment(cfg, model);

    printPaperMeasured(
        std::cout, "(extension; the paper folds both sockets into its "
                   "measurements)",
        "remote-socket hogs are harmless, local hogs are not; "
        "dual-socket pricing gap " +
            TextTable::num(100 * (result.idealDiscount() -
                                  result.litmusDiscount()),
                           1) +
            "pp (litmus " + TextTable::num(100 * result.litmusDiscount(), 1) +
            "% vs ideal " + TextTable::num(100 * result.idealDiscount(), 1) +
            "%)");
}

/**
 * Ablation: POPPA-style sampling vs the Litmus test (Sections 1/4).
 *
 * The paper's motivating claim: sampling-based pricing stalls every
 * co-running task during each sample, which is impractical at
 * serverless churn rates, while the Litmus test is free. This bench
 * quantifies both sides on the same 26-co-runner environment:
 * POPPA's co-runner stall overhead, and both schemes' price accuracy
 * against the ideal price.
 */
void
ablationPoppa()
{
    printBanner(std::cout, "Ablation: POPPA sampling vs Litmus test");

    std::cout << "calibrating Litmus tables...\n";
    const pricing::DiscountModel model(calibrated(Sweep::Dedicated));
    const pricing::PricingEngine pricer(model);

    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const auto subjects = workload::testSet();
    const unsigned reps = bench::reps(3);

    sim::Engine engine(machine);
    pricing::PoppaConfig pcfg;
    pcfg.samplePeriod = 20e-3;
    pcfg.sampleWindow = 2e-3;
    pricing::PoppaSampler sampler(engine, pcfg);

    workload::InvokerConfig icfg;
    icfg.placement = workload::InvokerConfig::Placement::OnePerCore;
    icfg.targetCount = 26;
    for (unsigned i = 1; i <= 26; ++i)
        icfg.cpuPool.push_back(i);
    icfg.seed = 42;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    engine.run(0.2);

    Rng rng(7);
    std::vector<double> litmusErr, poppaErr;
    for (const auto *spec : subjects) {
        const auto solo = pricing::measureSoloBaseline(machine, *spec);
        for (unsigned rep = 0; rep < reps; ++rep) {
            auto task = workload::makeInvocation(*spec, rng);
            task->setAffinity({0});
            const auto done = engine.runToCompletion(std::move(task));
            const sim::TaskCounters &counters = done->counters();

            const auto quote = pricer.quote(
                counters, pricing::readProbe(*done), spec->language, solo);
            const double poppaPrice =
                sampler.price(counters, done->id()) / counters.cycles;
            litmusErr.push_back(quote.litmusNormalized() -
                                quote.idealNormalized());
            poppaErr.push_back(poppaPrice - quote.idealNormalized());
        }
    }

    const double wallTime = engine.now();
    const double stallShare =
        sampler.stallOverhead() / (wallTime * 26.0);

    TextTable table({"scheme", "mean |price error| vs ideal",
                     "co-runner stall overhead"});
    table.addRow({"Litmus test", TextTable::num(meanAbs(litmusErr)),
                  "0 (reuses the startup)"});
    table.addRow({"POPPA sampling", TextTable::num(meanAbs(poppaErr)),
                  TextTable::num(100 * stallShare, 2) + "% of CPU time"});
    table.print(std::cout);

    printPaperMeasured(std::cout,
                       "sampling requires stalling all co-runners; "
                       "impractical for short-lived functions",
                       "POPPA stalled co-runners for " +
                           TextTable::num(100 * stallShare, 2) +
                           "% of their CPU time (" +
                           std::to_string(sampler.windowsOpened()) +
                           " windows); Litmus probe overhead is zero by "
                           "construction");
}

/**
 * Ablation: Litmus-test window length.
 *
 * The paper measures the first 45M instructions of the Python startup
 * (Section 7.1). Shorter windows probe less of the memory-heavy
 * import phases (noisier congestion estimates); the full startup adds
 * nothing but latency before the price can be quoted. This sweep
 * recalibrates and re-prices at several window lengths and reports
 * the accuracy each achieves.
 */
void
ablationProbeWindow()
{
    printBanner(std::cout, "Ablation: probe window length");

    TextTable table({"window (Minstr)", "litmus discount %",
                     "ideal discount %", "mean |err| vs ideal"});

    const unsigned reps = bench::reps(3);
    double err45 = 0, errShort = 0;

    for (double window : {5e6, 15e6, 30e6, 45e6}) {
        pricing::CalibrationConfig ccfg = dedicatedCalibration();
        ccfg.levels = {4, 10, 16, 22};
        ccfg.probeWindowOverride = window;
        const auto cal = pricing::calibrate(ccfg);
        const pricing::DiscountModel model(cal);

        pricing::ExperimentConfig cfg;
        cfg.coRunners = 26;
        cfg.layoutOnePerCore();
        cfg.repetitions = reps;
        cfg.probeWindowOverride = window;

        const auto result = pricing::runPricingExperiment(cfg, model);
        std::vector<double> errs;
        for (const auto &row : result.rows)
            errs.push_back(row.totalError);
        const double err = meanAbs(errs);
        if (window == 45e6)
            err45 = err;
        if (window == 5e6)
            errShort = err;
        table.addRow({TextTable::num(window / 1e6, 0),
                      TextTable::num(100 * result.litmusDiscount(), 1),
                      TextTable::num(100 * result.idealDiscount(), 1),
                      TextTable::num(err)});
    }
    table.print(std::cout);

    printPaperMeasured(std::cout,
                       "uses the first 45M instructions of the startup "
                       "(Section 7.1)",
                       "|err| at 5M window " + TextTable::num(errShort) +
                           " vs at 45M " + TextTable::num(err45));
}

// The calibrated-pricing figures (11, 15-21): one motion, a row each.

/**
 * Standard Section 7.2 pooled experiment: co-runners and the test
 * function share the first @p pool_cpus CPUs.
 */
pricing::ExperimentConfig
pooledExperiment(unsigned co_runners, unsigned pool_cpus,
                 sim::MachineConfig machine =
                     sim::MachineCatalog::get("cascade-5218"))
{
    pricing::ExperimentConfig cfg;
    cfg.machine = std::move(machine);
    cfg.coRunners = co_runners;
    cfg.layoutPooled(pool_cpus);
    cfg.repetitions = reps();
    cfg.warmup = 0.3;
    return cfg;
}

/** Print one price-per-function table (Figures 11, 15-21). */
void
printPriceTable(const pricing::ExperimentResult &result)
{
    TextTable table({"function", "litmus price", "ideal price"});
    for (const auto &row : result.rows) {
        table.addRow({row.name, TextTable::num(row.litmusPrice),
                      TextTable::num(row.idealPrice)});
    }
    table.addRow({"gmean", TextTable::num(result.gmeanLitmusPrice),
                  TextTable::num(result.gmeanIdealPrice)});
    table.print(std::cout);
}

/** Percentage points between the ideal and the Litmus discount. */
std::string
gapPp(const pricing::ExperimentResult &result)
{
    return TextTable::num(
        100 * (result.idealDiscount() - result.litmusDiscount()), 1);
}

/** The paper's Litmus and ideal discounts for one figure. */
struct Discounts
{
    double litmus;
    double ideal;
};

/** Print the paper-vs-measured discount summary. */
void
printDiscountSummary(const pricing::ExperimentResult &result,
                     const Discounts &paper)
{
    printPaperMeasured(
        std::cout,
        "litmus discount " + TextTable::num(100 * paper.litmus, 1) +
            "%  ideal discount " + TextTable::num(100 * paper.ideal, 1) +
            "%",
        "litmus discount " +
            TextTable::num(100 * result.litmusDiscount(), 1) +
            "%  ideal discount " +
            TextTable::num(100 * result.idealDiscount(), 1) + "%  gap " +
            gapPp(result) + "pp");
}

/**
 * A calibrated-pricing figure as data: the sweep its tables come
 * from, the experiment it prices, and its footer. The footer is the
 * discount summary against @c paper, then @c extra when set.
 */
struct PricedFigure
{
    const char *title;
    const char *calibrating;
    Sweep sweep;
    pricing::ExperimentConfig (*experiment)();
    std::optional<Discounts> paper = {};
    void (*extra)(const pricing::ExperimentResult &) = nullptr;
};

void
runPriced(const PricedFigure &figure)
{
    printBanner(std::cout, figure.title);
    std::cout << figure.calibrating << "\n";
    const auto &result = priced(figure.sweep, figure.experiment);
    printPriceTable(result);
    if (figure.paper)
        printDiscountSummary(result, *figure.paper);
    if (figure.extra)
        figure.extra(result);
}

/** One paper_figures id: a figure body or a priced row. */
struct Figure
{
    const char *id;
    void (*body)() = nullptr;
    PricedFigure priced{};
};

const Figure kFigures[] = {
    {"fig01_traffic_gen", fig01TrafficGen},
    {"fig02_corun_slowdown", fig02CorunSlowdown},
    {"fig03_time_split", fig03TimeSplit},
    {"fig04_time_distribution", fig04TimeDistribution},
    {"fig05_tables", fig05Tables},
    {"fig06_startup_ipc", fig06StartupIpc},
    {"fig07_congestion_timeline", fig07CongestionTimeline},
    {"fig08_reference_mb14", fig08ReferenceMb14},
    {"fig09_regression", fig09Regression},
    {"fig10_interpolation", fig10Interpolation},
    // Figure 11: Litmus and ideal prices, each test function among 26
    // co-runners one per core. Paper: a 0.4pp gap.
    {.id = "fig11_price_one_per_core",
     .priced = {.title = "Figure 11: Litmus vs ideal price, 26 "
                         "co-runners, one function per core",
                .calibrating = "calibrating provider tables (dedicated "
                               "cores)...",
                .sweep = Sweep::Dedicated,
                .experiment = onePerCoreExperiment,
                .paper = Discounts{0.107, 0.103}}},
    {"fig12_price_errors", fig12PriceErrors},
    {"fig13_discount_lines", fig13DiscountLines},
    {"fig14_switch_overhead", fig14SwitchOverhead},
    // Figure 15: Method 1, the dedicated-core tables plus a Figure 14
    // warmth factor dividing T_private (10 functions per core, Section
    // 7.2). Paper: Method 1 undershoots the ideal.
    {.id = "fig15_method1",
     .priced = {.title = "Figure 15: Method 1 — dedicated tables + "
                         "sharing factor, 160 co-runners",
                .calibrating = "calibrating (dedicated cores)...",
                .sweep = Sweep::Dedicated,
                .experiment =
                    [] {
                        auto cfg = pooledExperiment(160, 16);
                        sim::OsScheduler sched(cfg.machine,
                                               cfg.machine.quantum);
                        cfg.sharingFactor = sched.warmthForCount(10);
                        return cfg;
                    },
                .paper = Discounts{0.145, 0.174}}},
    // Figure 16: Method 2, tables rebuilt in a sharing-enabled
    // environment, then 160 co-runners over 16 cores.
    {.id = "fig16_method2",
     .priced = {.title = "Figure 16: Method 2 — sharing-calibrated "
                         "tables, 160 co-runners",
                .calibrating = "calibrating (50 functions over 5 shared "
                               "cores)...",
                .sweep = Sweep::Method2,
                .experiment = [] { return pooledExperiment(160, 16); },
                .paper = Discounts{0.172, 0.174}}},
    // Figure 17: heavy congestion, 320 co-runners drawn from the eight
    // most memory-intensive suite members.
    {.id = "fig17_heavy",
     .priced = {.title = "Figure 17: heavy congestion, 320 co-runners",
                .calibrating = "calibrating (Method 2)...",
                .sweep = Sweep::Method2,
                .experiment =
                    [] {
                        auto cfg = pooledExperiment(320, 16);
                        cfg.coRunnerPool = workload::memoryIntensiveSet();
                        cfg.warmup = 0.5;
                        return cfg;
                    },
                .paper = Discounts{0.200, 0.215},
                .extra =
                    [](const pricing::ExperimentResult &result) {
                        double maxDiscount = 0;
                        std::string maxName;
                        for (const auto &row : result.rows) {
                            if (1 - row.litmusPrice > maxDiscount) {
                                maxDiscount = 1 - row.litmusPrice;
                                maxName = row.name;
                            }
                        }
                        printPaperMeasured(
                            std::cout,
                            "largest Litmus discount 26.0% (dyn-py)",
                            "largest Litmus discount " +
                                TextTable::num(100 * maxDiscount, 1) +
                                "% (" + maxName + ")",
                            false);
                    }}},
    // Figure 18: the Section 7.2 setup under a turbo governor, priced
    // with tables built at the pinned base frequency.
    {.id = "fig18_frequency",
     .priced = {.title = "Figure 18: unfixed CPU frequency (turbo), "
                         "160 co-runners",
                .calibrating = "calibrating (Method 2, fixed "
                               "frequency)...",
                .sweep = Sweep::Method2,
                .experiment =
                    [] {
                        auto cfg = pooledExperiment(160, 16);
                        cfg.policy = sim::FrequencyPolicy::Turbo;
                        return cfg;
                    },
                .paper = Discounts{0.168, 0.173}}},
    // Figure 19: Xeon Silver 4314 (Ice Lake, 16 cores, 24 MiB L3), 70
    // co-runners over 7 cores.
    {.id = "fig19_icelake",
     .priced = {.title = "Figure 19: Ice Lake (Xeon Silver 4314), 70 "
                         "co-runners",
                .calibrating = "calibrating (Method 2 on Ice Lake)...",
                .sweep = Sweep::Method2IceLake,
                .experiment =
                    [] {
                        return pooledExperiment(
                            70, 7, sim::MachineCatalog::get("icelake-4314"));
                    },
                .extra =
                    [](const pricing::ExperimentResult &result) {
                        printPaperMeasured(
                            std::cout,
                            "Litmus price 82.5% of commercial, 0.7pp "
                            "below ideal",
                            "Litmus price " +
                                TextTable::num(
                                    100 * result.gmeanLitmusPrice, 1) +
                                "% of commercial, gap " + gapPp(result) +
                                "pp");
                    }}},
    // Figure 20: 240 co-runners (15 per core) priced with the tables
    // calibrated for 10 per core; the switching overhead saturates
    // past ~10 co-runners (Figure 14), so the error stays small.
    {.id = "fig20_reuse_tables",
     .priced = {.title = "Figure 20: 240 co-runners (15/core), tables "
                         "reused from 10/core",
                .calibrating = "calibrating (Method 2 at 10 "
                               "functions/core)...",
                .sweep = Sweep::Method2,
                .experiment =
                    [] {
                        auto cfg = pooledExperiment(240, 16);
                        cfg.warmup = 0.4;
                        return cfg;
                    },
                .paper = Discounts{0.167, 0.179}}},
    // Figure 21: SMT, 160 co-runners over all 32 hardware threads.
    // Paper: heavy intra-core interference collapses the ideal price.
    {.id = "fig21_smt",
     .priced = {.title = "Figure 21: SMT enabled, 160 co-runners",
                .calibrating = "calibrating (Method 2, 50 functions over "
                               "5 physical cores = 10 hw threads)...",
                .sweep = Sweep::Method2Smt,
                .experiment =
                    [] { return pooledExperiment(160, 32, smtMachine()); },
                .extra =
                    [](const pricing::ExperimentResult &result) {
                        printPaperMeasured(
                            std::cout,
                            "ideal price 47.3% of commercial; Litmus "
                            "discount 45.4% (1.9pp less)",
                            "ideal price " +
                                TextTable::num(
                                    100 * result.gmeanIdealPrice, 1) +
                                "%; Litmus discount " +
                                TextTable::num(
                                    100 * result.litmusDiscount(), 1) +
                                "% (gap " + gapPp(result) + "pp)");
                    }}},
    {"fig22_fleet_scaling", fig22FleetScaling},
    {"fig23_hetero_fleet", fig23HeteroFleet},
    {"fig24_scenario_mix", fig24ScenarioMix},
    {"fig25_chaos", fig25Chaos},
    {"fig26_trace_scale", fig26TraceScale},
    {"table1_suite", table1Suite},
    {"ablation_design", ablationDesign},
    {"ablation_numa", ablationNuma},
    {"ablation_poppa", ablationPoppa},
    {"ablation_probe_window", ablationProbeWindow},
};

const Figure *
findFigure(const std::string &id)
{
    for (const Figure &figure : kFigures) {
        if (id == figure.id)
            return &figure;
    }
    return nullptr;
}

} // namespace
} // namespace litmus::bench

int
main(int argc, char **argv)
{
    using namespace litmus::bench;
    std::vector<const Figure *> run;
    for (int i = 1; i < argc; ++i) {
        const Figure *figure = findFigure(argv[i]);
        if (!figure) {
            std::cerr << "paper_figures: unknown figure '" << argv[i]
                      << "'; known ids:\n";
            for (const Figure &known : kFigures)
                std::cerr << "  " << known.id << "\n";
            return 2;
        }
        run.push_back(figure);
    }
    if (run.empty()) {
        for (const Figure &figure : kFigures)
            run.push_back(&figure);
    }
    for (const Figure *figure : run) {
        if (figure->body)
            figure->body();
        else
            runPriced(figure->priced);
    }
    return 0;
}
