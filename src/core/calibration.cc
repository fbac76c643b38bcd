#include "core/calibration.h"

#include <sched.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>

#include "common/logging.h"
#include "common/stats.h"
#include "sim/machine.h"
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
std::unique_ptr<workload::ProgramTask>
makeStartupTask(Language lang, Instructions window_override = 0)
{
    Instructions window = window_override > 0
                              ? window_override
                              : workload::probeWindow(lang);
    // The probe must close inside the startup (shorter runtimes like
    // Go cap the usable window).
    window = std::min(
        window,
        workload::startupProgram(lang).totalInstructions() * 0.9);
    return std::make_unique<workload::ProgramTask>(
        "start-" + workload::languageSuffix(lang),
        workload::startupProgram(lang), window);
}

/** Per-cell measurement context: engine + optional sharing churn. */
class CellEnvironment
{
  public:
    CellEnvironment(const CalibrationConfig &cfg, GeneratorKind gen,
                    unsigned level, std::uint64_t seed)
        : engine_(cfg.machine, cfg.policy)
    {
        if (cfg.sharingFunctions > 0) {
            workload::InvokerConfig icfg;
            icfg.placement = workload::InvokerConfig::Placement::Pooled;
            icfg.targetCount = cfg.sharingFunctions;
            icfg.cpuPool = cfg.sharingCpus;
            icfg.seed = seed;
            invoker_ =
                std::make_unique<workload::Invoker>(engine_, icfg);
        }

        engine_.onCompletion([this](sim::Task &task) {
            if (invoker_ && invoker_->handleCompletion(task))
                return;
            lastCounters_ = task.counters();
            lastProbe_ = task.probe();
            captured_ = true;
        });

        if (invoker_)
            invoker_->start();

        if (level > 0)
            workload::spawnGenerator(engine_, gen, level,
                                     cfg.generatorFirstCpu);

        engine_.run(cfg.warmup);
    }

    /** Run a subject task to completion; returns its final counters. */
    sim::TaskCounters
    measure(std::unique_ptr<sim::Task> subject,
            std::vector<unsigned> affinity, sim::ProbeCapture *probe_out)
    {
        subject->setAffinity(std::move(affinity));
        captured_ = false;
        sim::Task &handle = engine_.add(std::move(subject));
        const std::uint64_t id = handle.id();
        engine_.runUntilCompleteId(id);
        if (!captured_)
            panic("CellEnvironment: completion not captured");
        if (probe_out)
            *probe_out = lastProbe_;
        return lastCounters_;
    }

    sim::Engine &engine() { return engine_; }

  private:
    sim::Engine engine_;
    std::unique_ptr<workload::Invoker> invoker_;
    sim::TaskCounters lastCounters_;
    sim::ProbeCapture lastProbe_;
    bool captured_ = false;
};

/** What one (generator, level) stress cell measured. */
struct CellResult
{
    /** One entry per workload::allLanguages(), in that order. */
    std::vector<CongestionEntry> congestion;
    PerformanceEntry performance;
};

/**
 * Run one stress cell: the startup probes of every language, then the
 * reference functions, all inside one CellEnvironment. Reads only
 * @p cfg, the congestion baselines and @p ref_solo, so cells are
 * independent of each other and of the order they run in.
 */
CellResult
measureCell(const CalibrationConfig &cfg, GeneratorKind gen,
            unsigned level, const CongestionTable &baselines,
            const std::map<std::string, SoloBaseline> &ref_solo,
            const std::vector<unsigned> &subject_affinity)
{
    CellEnvironment env(cfg, gen, level, cfg.seed + 31 * level);
    CellResult cell;

    // Congestion table: startup probes per language.
    for (Language lang : workload::allLanguages()) {
        std::vector<double> priv, shared, total, l3;
        for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
            sim::ProbeCapture probe;
            env.measure(makeStartupTask(lang, cfg.probeWindowOverride),
                        subject_affinity, &probe);
            const ProbeReading reading = readProbe(probe);
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
        cell.congestion.push_back(entry);
    }

    // Performance table: reference-function slowdown gmeans.
    std::vector<double> priv, shared, total;
    for (const FunctionSpec *spec : cfg.referencePool) {
        const SoloBaseline &solo = ref_solo.at(spec->name);
        std::vector<double> p, s, t;
        for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
            const sim::TaskCounters counters = env.measure(
                workload::makeNominalInvocation(*spec, false),
                subject_affinity, nullptr);
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
    cell.performance.privSlowdown = gmean(priv);
    cell.performance.sharedSlowdown = gmean(shared);
    cell.performance.totalSlowdown = gmean(total);
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

constexpr GeneratorKind kGenerators[] = {GeneratorKind::CtGen,
                                         GeneratorKind::MbGen};

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
    const sim::RunResult run = sim::runSolo(
        machine,
        [&] { return workload::makeNominalInvocation(spec, false); },
        policy);
    SoloBaseline solo;
    solo.privCpi = run.counters.privateCycles() / run.counters.instructions;
    solo.sharedCpi =
        run.counters.stallSharedCycles / run.counters.instructions;
    return solo;
}

CalibrationProfile
calibrate(const CalibrationConfig &cfg)
{
    cfg.validate();
    const auto cells =
        static_cast<unsigned>(std::size(kGenerators) * cfg.levels.size());
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
        const sim::RunResult solo = sim::runSolo(
            cfg.machine,
            [&] {
                return makeStartupTask(lang, cfg.probeWindowOverride);
            },
            cfg.policy);
        result.congestion.setBaseline(lang, readProbe(solo.probe));
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
    std::vector<CellResult> slots(std::size(kGenerators) * levels);
    std::vector<std::function<void()>> jobs;
    jobs.reserve(slots.size());
    for (std::size_t l = levels; l-- > 0;) {
        for (std::size_t g = 0; g < std::size(kGenerators); ++g) {
            jobs.emplace_back([&, g, l] {
                slots[g * levels + l] = measureCell(
                    cfg, kGenerators[g], cfg.levels[l],
                    result.congestion, result.referenceSolo,
                    subjectAffinity);
            });
        }
    }
    pool.run(jobs);

    // Fill the tables in (generator, level, language) order, exactly
    // as a serial sweep would.
    const std::vector<Language> &langs = workload::allLanguages();
    for (std::size_t g = 0; g < std::size(kGenerators); ++g) {
        for (std::size_t l = 0; l < levels; ++l) {
            const CellResult &cell = slots[g * levels + l];
            for (std::size_t i = 0; i < langs.size(); ++i) {
                result.congestion.add(langs[i], kGenerators[g],
                                      cfg.levels[l], cell.congestion[i]);
            }
            result.performance.add(kGenerators[g], cfg.levels[l],
                                   cell.performance);
        }
    }

    return result;
}

} // namespace litmus::pricing
