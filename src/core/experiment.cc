#include "core/experiment.h"

#include "common/logging.h"
#include "common/stats.h"
#include "core/calibration.h"

namespace litmus::pricing
{

void
ExperimentConfig::layoutOnePerCore()
{
    placement = workload::InvokerConfig::Placement::OnePerCore;
    subjectCpus = {0};
    coRunnerCpus.clear();
    for (unsigned i = 1; i <= coRunners; ++i)
        coRunnerCpus.push_back(i);
}

void
ExperimentConfig::layoutPooled(unsigned pool_cpus)
{
    placement = workload::InvokerConfig::Placement::Pooled;
    coRunnerCpus.clear();
    for (unsigned i = 0; i < pool_cpus; ++i)
        coRunnerCpus.push_back(i);
    subjectCpus = coRunnerCpus;
}

void
ExperimentConfig::validate() const
{
    machine.validate();
    if (coRunnerCpus.empty() || subjectCpus.empty())
        fatal("ExperimentConfig: call layoutOnePerCore()/layoutPooled()"
              " or set CPU lists explicitly");
    if (repetitions == 0)
        fatal("ExperimentConfig: repetitions must be positive");
    for (unsigned cpu : coRunnerCpus) {
        if (cpu >= machine.hwThreads())
            fatal("ExperimentConfig: co-runner cpu ", cpu,
                  " out of range");
    }
    for (unsigned cpu : subjectCpus) {
        if (cpu >= machine.hwThreads())
            fatal("ExperimentConfig: subject cpu ", cpu, " out of range");
    }
}

const FunctionRow &
ExperimentResult::row(const std::string &name) const
{
    for (const FunctionRow &r : rows) {
        if (r.name == name)
            return r;
    }
    fatal("ExperimentResult::row: no row named '", name, "'");
}

namespace
{

using workload::FunctionSpec;

/** Shared implementation of both experiment flavours. */
ExperimentResult
runExperiment(const ExperimentConfig &cfg, const DiscountModel *model)
{
    cfg.validate();

    std::vector<const FunctionSpec *> subjects = cfg.subjects;
    if (subjects.empty())
        subjects = workload::testSet();

    // Solo baselines (per-instruction, deterministic nominal runs).
    std::map<std::string, SoloBaseline> solo;
    for (const FunctionSpec *spec : subjects) {
        solo[spec->name] = measureSoloBaseline(
            cfg.machine, *spec, sim::FrequencyPolicy::Fixed);
    }

    // Population engine.
    sim::Engine engine(cfg.machine, cfg.policy);

    workload::InvokerConfig icfg;
    icfg.placement = cfg.placement;
    icfg.targetCount = cfg.coRunners;
    icfg.cpuPool = cfg.coRunnerCpus;
    icfg.functionPool = cfg.coRunnerPool;
    icfg.seed = cfg.seed;
    workload::Invoker invoker(engine, icfg);
    invoker.start();
    engine.run(cfg.warmup);

    std::optional<PricingEngine> pricer;
    if (model)
        pricer.emplace(*model, cfg.sharingFactor);

    ExperimentResult result;
    Rng rng(cfg.seed ^ 0x5afe5eedull);

    for (const FunctionSpec *spec : subjects) {
        const SoloBaseline &base = solo.at(spec->name);

        std::vector<double> litmusN, idealN, privErr, sharedErr,
            totalErr, tPriv, tShared, predPriv, predShared, totalSlow;

        for (unsigned rep = 0; rep < cfg.repetitions; ++rep) {
            workload::InvocationOptions opts;
            opts.withProbe = true;
            opts.probeWindow = cfg.probeWindowOverride;
            auto task = workload::makeInvocation(*spec, rng, opts);
            task->setAffinity(cfg.subjectCpus);
            const std::unique_ptr<sim::Task> done =
                engine.runToCompletion(std::move(task));
            const sim::TaskCounters &counters = done->counters();

            const double privCpi =
                counters.privateCycles() / counters.instructions;
            const double sharedCpi =
                counters.stallSharedCycles / counters.instructions;

            tPriv.push_back(privCpi / base.privCpi);
            tShared.push_back(sharedCpi / base.sharedCpi);
            totalSlow.push_back((privCpi + sharedCpi) / base.totalCpi());

            if (pricer) {
                const PriceQuote q = pricer->quote(
                    counters, readProbe(*done), spec->language, base);
                litmusN.push_back(q.litmusNormalized());
                idealN.push_back(q.idealNormalized());
                privErr.push_back(q.privError());
                sharedErr.push_back(q.sharedError());
                totalErr.push_back(q.totalError());
                predPriv.push_back(q.estimate.predictedPriv *
                                   pricer->sharingFactor());
                predShared.push_back(q.estimate.predictedShared);
            }
        }

        FunctionRow row;
        row.name = spec->name;
        row.invocations = cfg.repetitions;
        row.tPrivSlowdown = gmean(tPriv);
        row.tSharedSlowdown = gmean(tShared);
        row.totalSlowdown = gmean(totalSlow);
        row.sharedShareSolo = base.sharedCpi / base.totalCpi();
        if (pricer) {
            row.litmusPrice = gmean(litmusN);
            row.idealPrice = gmean(idealN);
            row.privError = mean(privErr);
            row.sharedError = mean(sharedErr);
            row.totalError = mean(totalErr);
            row.predictedPriv = gmean(predPriv);
            row.predictedShared = gmean(predShared);
        }
        result.rows.push_back(std::move(row));
    }

    // Suite aggregates.
    std::vector<double> lit, idl, absErr, priv, shared, total;
    for (const FunctionRow &row : result.rows) {
        lit.push_back(row.litmusPrice);
        idl.push_back(row.idealPrice);
        absErr.push_back(row.totalError);
        priv.push_back(row.tPrivSlowdown);
        shared.push_back(row.tSharedSlowdown);
        total.push_back(row.totalSlowdown);
    }
    if (model) {
        result.gmeanLitmusPrice = gmean(lit);
        result.gmeanIdealPrice = gmean(idl);
        result.absGmeanError = gmeanAbs(absErr);
    }
    result.gmeanPrivSlowdown = gmean(priv);
    result.gmeanSharedSlowdown = gmean(shared);
    result.gmeanTotalSlowdown = gmean(total);
    return result;
}

} // namespace

ExperimentResult
runPricingExperiment(const ExperimentConfig &cfg,
                     const DiscountModel &model)
{
    // A model fitted on one machine generation quietly misprices
    // another; refuse the mismatch up front.
    model.requireMachine(cfg.machine.name);
    return runExperiment(cfg, &model);
}

ExperimentResult
runSlowdownExperiment(const ExperimentConfig &cfg)
{
    return runExperiment(cfg, nullptr);
}

} // namespace litmus::pricing
