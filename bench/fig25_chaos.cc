/**
 * @file
 * Figure 25 (extension): chaos — billing that survives machine
 * failure.
 *
 * The fleet trajectory so far only ever billed on machines that stay
 * up. This bench serves one Poisson-loaded fleet through a fault
 * campaign — machine crashes with state loss and timed cold restarts
 * — once per retry policy (drop / retry-once / retry-backoff), plus
 * one "full chaos" cell that adds transient slowdown and dispatcher-
 * blindness windows on top, and reports per-cell crash/kill/retry
 * counts, lost work, and the fault-billing split.
 *
 * The bench fails only when the campaign kills nothing, which would
 * leave failure billing unmeasured. The conservation error and the
 * tenant-pays / provider-absorbs split error are printed; Cluster::run
 * checks conservation, terminal states and the kill = retried +
 * abandoned flow on every run, and ctest (FaultCluster.*, FaultPlan.*)
 * covers the retry policies, the billing split, thread-count
 * determinism and replay-identical fault schedules.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default
 * 400), LITMUS_FLEET_RATE (per machine, default 500),
 * LITMUS_BENCH_JSON.
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/fault_plan.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

using bench::relativeError;

/** One cell's conservation error: fleet billed+absorbed accumulators
 *  vs the independent per-machine ledger and absorption sums. */
double
conservationError(const cluster::FleetReport &report)
{
    return relativeError(
        report.billedCpuSeconds + report.absorbedCpuSeconds,
        report.sumMachineBilledSeconds() +
            report.sumMachineAbsorbedSeconds());
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 25 (extension): chaos — fault-rate sweep x "
                "retry policies, billing conserved through crashes");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 400);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);

    constexpr unsigned kMachines = 2;
    const std::uint64_t invocations = perMachine * kMachines;
    const double rate = ratePerMachine * kMachines;
    const double span = static_cast<double>(invocations) / rate;

    // The campaign scales with the trace span so the crash process
    // bites at smoke sizes and full sizes alike: ~4 stochastic
    // crashes per machine plus two scripted ones pinned mid-burst,
    // with restarts short enough that capacity loss never stalls the
    // drain.
    const auto baseScenario = [&](cluster::RetryPolicy retry) {
        scenario::ScenarioSpec spec;
        spec.fleet = {{"cascade-5218", kMachines}};
        spec.policy = cluster::DispatchPolicy::LeastLoaded;
        spec.traffic.model = "poisson";
        spec.traffic.arrivalsPerSecond = rate;
        spec.traffic.invocations = invocations;
        spec.keepAlive = 10.0;
        spec.seed = 11;
        spec.fault.crashMtbf = span / 4;
        spec.fault.restartDelay = std::max(1e-3, span / 25);
        spec.fault.crashAt = {{span * 0.25, 0}, {span * 0.6, 1}};
        spec.fault.retry = retry;
        spec.fault.retryMax = 4;
        spec.fault.retryBackoff = std::max(1e-3, span / 50);
        spec.fault.billing = cluster::FaultBilling::ProviderAbsorbs;
        return spec;
    };

    TextTable table({"cell", "crashes", "killed", "retried",
                     "abandoned", "lost s", "absorbed s", "cons err"});
    bench::BenchJson json("BENCH_chaos.json");
    double worstConservation = 0;
    std::uint64_t totalKilled = 0;

    const auto runCell = [&](const std::string &name,
                             scenario::ScenarioSpec spec)
        -> cluster::FleetReport {
        spec.threads = 1;
        scenario::ScenarioRunner runner(spec);
        const cluster::FleetReport report = runner.run();

        const double consErr = conservationError(report);
        worstConservation = std::max(worstConservation, consErr);
        totalKilled += report.killedInvocations;

        table.addRow({name, std::to_string(report.crashes),
                      std::to_string(report.killedInvocations),
                      std::to_string(report.retries),
                      std::to_string(report.abandoned),
                      TextTable::num(report.lostCpuSeconds, 4),
                      TextTable::num(report.absorbedCpuSeconds, 4),
                      TextTable::num(consErr, 9)});

        json.metric(name, "crashes", report.crashes);
        json.metric(name, "killed", report.killedInvocations);
        json.metric(name, "retries", report.retries);
        json.metric(name, "abandoned", report.abandoned);
        json.metric(name, "lost_cpu_seconds", report.lostCpuSeconds);
        json.metric(name, "absorbed_cpu_seconds",
                    report.absorbedCpuSeconds);
        json.metric(name, "absorbed_usd", report.absorbedUsd);
        json.metric(name, "billed_cpu_seconds",
                    report.billedCpuSeconds);
        json.metric(name, "completions", report.completions);
        json.metric(name, "conservation_error", consErr);
        return report;
    };

    // --- Retry-policy sweep under the same crash schedule. ---------
    runCell("drop", baseScenario(cluster::RetryPolicy::Drop));
    runCell("retry-once", baseScenario(cluster::RetryPolicy::RetryOnce));
    const auto backoffSpec =
        baseScenario(cluster::RetryPolicy::RetryBackoff);
    const auto backoffReport = runCell("retry-backoff", backoffSpec);

    // --- The fault-billing split partitions one total. -------------
    // Billing mode changes who pays, never what runs: the tenant-pays
    // twin of the backoff cell executes the identical schedule, so
    // its billed seconds must equal the provider's billed + absorbed.
    auto tenantSpec = backoffSpec;
    tenantSpec.fault.billing = cluster::FaultBilling::TenantPays;
    const auto tenantReport = runCell("tenant-pays", tenantSpec);
    const double splitError = relativeError(
        tenantReport.billedCpuSeconds,
        backoffReport.billedCpuSeconds +
            backoffReport.absorbedCpuSeconds);
    const double splitUsdError = relativeError(
        tenantReport.commercialUsd,
        backoffReport.commercialUsd + backoffReport.absorbedUsd);

    // --- Full chaos: slowdown + blindness on top of crashes. -------
    auto chaosSpec = baseScenario(cluster::RetryPolicy::RetryBackoff);
    chaosSpec.fault.slowMtbf = span / 3;
    chaosSpec.fault.slowDuration = std::max(2e-3, span / 10);
    chaosSpec.fault.slowFactor = 0.6;
    chaosSpec.fault.blindMtbf = span / 3;
    chaosSpec.fault.blindDuration = std::max(2e-3, span / 12);
    const auto chaosReport = runCell("full-chaos", chaosSpec);

    table.print(std::cout);
    std::cout << "\nbilling split tenant-pays vs provider-absorbs: "
              << TextTable::num(splitError, 9) << " s err, "
              << TextTable::num(splitUsdError, 9) << " $ err\n";

    bench::printPaperMeasured(
        std::cout,
        "n/a (robustness extension; the paper bills on machines that "
        "stay up) — expect conservation <= 1e-6 through crashes, the "
        "billing modes to split one total, and bit-identical reports "
        "under threading",
        std::to_string(chaosReport.crashes) +
            " crashes in the chaos cell, " +
            std::to_string(totalKilled) +
            " invocations killed across the sweep, max conservation "
            "error " +
            TextTable::num(worstConservation, 9));

    json.metric("", "billing_split_error", splitError);
    json.metric("", "billing_split_usd_error", splitUsdError);
    json.metric("", "max_conservation_error", worstConservation);
    json.metric("", "total_killed", totalKilled);
    json.write();

    if (totalKilled == 0)
        fatal("fig25: the fault campaign never killed an in-flight "
              "invocation — the chaos sweep is not exercising "
              "failure billing");
    return 0;
}
