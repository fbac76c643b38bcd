#include "core/calibration.h"

#include <sched.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/stats.h"
#include "workload/invoker.h"
#include "workload/traffic_gen.h"

namespace litmus::pricing
{

namespace
{

using workload::FunctionSpec;
using workload::GeneratorKind;
using workload::Language;

/** Bare startup task used as the congestion-table subject. */
std::unique_ptr<sim::Task>
makeStartupTask(Language lang, Instructions window_override = 0)
{
    Instructions window = window_override > 0
                              ? window_override
                              : workload::probeWindow(lang);
    // The probe must close inside the startup (shorter runtimes like
    // Go cap the usable window).
    const std::vector<sim::Phase> &startup = workload::startupProgram(lang);
    window = std::min(window, sim::totalInstructions(startup) * 0.9);
    return std::make_unique<sim::Task>(
        std::string("start-").append(
            nameOf(workload::kLanguageSuffixes, lang)),
        startup, window);
}

/**
 * Run one stress cell: the startup probes of every language, then the
 * reference functions, all on one engine holding the cell's optional
 * sharing churn and generators. Reads only @p cfg, the congestion
 * baselines and @p ref_solo, so cells are independent of each other
 * and of the order they run in.
 */
CongestionTable::Row
measureCell(const CalibrationConfig &cfg, GeneratorKind gen,
            unsigned level, const CongestionTable &baselines,
            const std::map<std::string, SoloBaseline> &ref_solo,
            const std::vector<unsigned> &subject_affinity)
{
    sim::Engine engine(cfg.machine, cfg.policy);
    std::optional<workload::Invoker> invoker;
    if (cfg.sharingFunctions > 0) {
        workload::InvokerConfig icfg;
        icfg.placement = workload::InvokerConfig::Placement::Pooled;
        icfg.targetCount = cfg.sharingFunctions;
        icfg.cpuPool = cfg.sharingCpus;
        icfg.seed = cfg.seed + 31 * level;
        invoker.emplace(engine, icfg);
        invoker->start();
    }
    if (level > 0)
        workload::spawnGenerator(engine, gen, level,
                                 cfg.generatorFirstCpu);
    engine.run(cfg.warmup);

    const auto measure = [&](std::unique_ptr<sim::Task> subject) {
        subject->setAffinity(subject_affinity);
        return engine.runToCompletion(std::move(subject));
    };

    CongestionTable::Row cell;
    cell.level = level;

    // Congestion half: startup probes per language.
    for (Language lang : workload::allLanguages()) {
        std::vector<double> priv, shared, total, l3;
        for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
            const ProbeReading reading = readProbe(*measure(
                makeStartupTask(lang, cfg.probeWindowOverride)));
            const ProbeSlowdown s =
                slowdownOf(reading, baselines.baseline(lang));
            priv.push_back(s.priv);
            shared.push_back(s.shared);
            total.push_back(s.total);
            l3.push_back(reading.machineL3MissPerUs);
        }
        CongestionEntry entry;
        entry.privSlowdown = gmean(priv);
        entry.sharedSlowdown = gmean(shared);
        entry.totalSlowdown = gmean(total);
        entry.l3MissPerUs = mean(l3);
        cell.startups.push_back(entry);
    }

    // Performance half: reference-function slowdown gmeans.
    std::vector<double> priv, shared, total;
    for (const FunctionSpec *spec : cfg.referencePool) {
        const SoloBaseline &solo = ref_solo.at(spec->name);
        std::vector<double> p, s, t;
        for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
            const sim::TaskCounters counters =
                measure(workload::makeNominalInvocation(*spec, false))
                    ->counters();
            const double privCpi =
                counters.privateCycles() / counters.instructions;
            const double sharedCpi =
                counters.stallSharedCycles / counters.instructions;
            p.push_back(privCpi / solo.privCpi);
            s.push_back(sharedCpi / solo.sharedCpi);
            t.push_back((privCpi + sharedCpi) / solo.totalCpi());
        }
        priv.push_back(gmean(p));
        shared.push_back(gmean(s));
        total.push_back(gmean(t));
    }
    cell.reference.privSlowdown = gmean(priv);
    cell.reference.sharedSlowdown = gmean(shared);
    cell.reference.totalSlowdown = gmean(total);
    return cell;
}

/** CPUs the calling thread may run on (its affinity mask), >= 1. */
unsigned
allowedCpuCount()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return 1;
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&allowed)));
}

} // namespace

void
CalibrationConfig::validate() const
{
    machine.validate();
    if (referencePool.empty())
        fatal("CalibrationConfig: referencePool is empty — the "
              "performance table needs at least one reference "
              "function (the default is workload::referenceSet())");
    if (levels.empty())
        fatal("CalibrationConfig: no stress levels");
    for (std::size_t i = 1; i < levels.size(); ++i) {
        if (levels[i] <= levels[i - 1])
            fatal("CalibrationConfig: levels must increase");
    }
    const unsigned maxLevel = levels.back();
    const unsigned hwThreads = machine.hwThreads();
    if (generatorFirstCpu + maxLevel > hwThreads)
        fatal("CalibrationConfig: level ", maxLevel,
              " does not fit behind cpu ", generatorFirstCpu, " on ",
              hwThreads, " hardware threads");
    // The subject must own its CPUs: one shared with a generator
    // would silently measure time-sharing, not congestion.
    const auto checkSubjectCpu = [&](const char *field, unsigned cpu) {
        if (cpu >= hwThreads)
            fatal("CalibrationConfig: ", field, " ", cpu, " is not a "
                  "cpu of '", machine.name, "' (", hwThreads,
                  " hardware threads)");
        if (cpu >= generatorFirstCpu &&
            cpu < generatorFirstCpu + maxLevel) {
            fatal("CalibrationConfig: ", field, " ", cpu,
                  " overlaps the generator range [", generatorFirstCpu,
                  ", ", generatorFirstCpu + maxLevel, ")");
        }
    };
    if (sharingFunctions > 0) {
        if (sharingCpus.empty())
            fatal("CalibrationConfig: sharing enabled without CPUs");
        for (unsigned cpu : sharingCpus)
            checkSubjectCpu("sharingCpus entry", cpu);
    } else {
        checkSubjectCpu("subjectCpu", subjectCpu);
    }
    if (repetitions == 0)
        fatal("CalibrationConfig: repetitions must be positive");
}

void
requireMachineMatch(const std::string &calibrated,
                    const std::string &machine_name,
                    const char *context)
{
    if (!calibrated.empty() && !machine_name.empty() &&
        calibrated != machine_name) {
        fatal(context, ": calibrated on '", calibrated,
              "' but asked to price '", machine_name,
              "' — use the profile for that machine type");
    }
}

void
CalibrationProfile::requireMachine(const std::string &machine_name) const
{
    requireMachineMatch(machine, machine_name, "CalibrationProfile");
}

CalibrationConfig
dedicatedCalibrationFor(sim::MachineConfig machine)
{
    CalibrationConfig cfg;
    cfg.machine = std::move(machine);
    cfg.subjectCpu = 0;
    cfg.generatorFirstCpu = 1;
    cfg.levels.clear();
    // Generators occupy CPUs 1..level, so the deepest level is one
    // short of the thread count; the paper sweeps to 26.
    if (cfg.machine.hwThreads() < 3) {
        fatal("dedicatedCalibrationFor: machine '", cfg.machine.name,
              "' has only ", cfg.machine.hwThreads(), " hardware "
              "thread(s) — the dedicated sweep needs at least 3 "
              "(subject + 2 generators)");
    }
    const unsigned maxLevel =
        std::min(26u, cfg.machine.hwThreads() - 1);
    for (unsigned level = 2; level <= maxLevel; level += 2)
        cfg.levels.push_back(level);
    return cfg;
}

SoloBaseline
measureSoloBaseline(const sim::MachineConfig &machine,
                    const FunctionSpec &spec,
                    sim::FrequencyPolicy policy)
{
    const sim::TaskCounters counters =
        sim::Engine(machine, policy)
            .runToCompletion(workload::makeNominalInvocation(spec, false))
            ->counters();
    SoloBaseline solo;
    solo.privCpi = counters.privateCycles() / counters.instructions;
    solo.sharedCpi = counters.stallSharedCycles / counters.instructions;
    return solo;
}

CalibrationProfile
calibrate(const CalibrationConfig &cfg)
{
    cfg.validate();
    const auto cells = static_cast<unsigned>(
        std::size(kCalibrationGenerators) * cfg.levels.size());
    EpochPool pool(std::min(allowedCpuCount(), cells));
    return calibrate(cfg, pool);
}

CalibrationProfile
calibrate(const CalibrationConfig &cfg, EpochPool &pool)
{
    cfg.validate();
    CalibrationProfile result;
    result.machine = cfg.machine.name;

    // ---- Congestion-free baselines ---------------------------------
    for (Language lang : workload::allLanguages()) {
        const std::unique_ptr<sim::Task> solo =
            sim::Engine(cfg.machine, cfg.policy)
                .runToCompletion(
                    makeStartupTask(lang, cfg.probeWindowOverride));
        result.congestion.setBaseline(lang, readProbe(*solo));
    }

    for (const FunctionSpec *spec : cfg.referencePool)
        result.referenceSolo[spec->name] =
            measureSoloBaseline(cfg.machine, *spec, cfg.policy);

    const std::vector<unsigned> subjectAffinity =
        cfg.sharingFunctions > 0 ? cfg.sharingCpus
                                 : std::vector<unsigned>{cfg.subjectCpu};

    // ---- Stress sweep ----------------------------------------------
    // One self-contained environment per (generator, level) cell,
    // seeded by its level alone, so the cells run on the pool in any
    // order and on any number of threads. Each writes only its own
    // slot; the jobs are queued deepest level first, since deeper
    // cells step the most quanta and would otherwise finish last.
    const std::size_t levels = cfg.levels.size();
    constexpr std::size_t gens = std::size(kCalibrationGenerators);
    std::vector<CongestionTable::Row> slots(gens * levels);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(slots.size());
    for (std::size_t l = levels; l-- > 0;) {
        for (std::size_t g = 0; g < gens; ++g) {
            jobs.emplace_back([&, g, l] {
                slots[g * levels + l] = measureCell(
                    cfg, kCalibrationGenerators[g], cfg.levels[l],
                    result.congestion, result.referenceSolo,
                    subjectAffinity);
            });
        }
    }
    pool.run(jobs);

    // Slot g * levels + l is generator g's row at level l.
    for (std::size_t i = 0; i < slots.size(); ++i)
        result.congestion.add(kCalibrationGenerators[i / levels],
                              std::move(slots[i]));

    return result;
}

} // namespace litmus::pricing
