/**
 * @file
 * Figure 23 (extension): heterogeneous fleet serving.
 *
 * The paper calibrates and prices on two servers — Cascade Lake 5218
 * (Section 3) and Ice Lake 4314 (Section 8) — but always one at a
 * time. This bench serves one open-loop trace from a fleet that mixes
 * both generations, under every dispatch policy, with per-type Litmus
 * pricing: each machine type is calibrated once (ProfileStore) and
 * billed through its own profile-backed discount model.
 *
 * The type-breakdown and conservation error columns are printed;
 * Cluster::run checks both identities on every run (counts exactly,
 * billed seconds and both revenues to 1e-6 relative), and ctest
 * (Cluster.HeterogeneousThreadedRunnerIsDeterministic) serves a
 * priced mixed fleet at several thread counts and under the oracle.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default
 * 625), LITMUS_FLEET_RATE (per machine, default 500),
 * LITMUS_FLEET_PRICING (0 disables the calibration sweep + Litmus
 * pricing; smoke/sanitizer runs), LITMUS_BENCH_JSON.
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

constexpr unsigned kPerType = 4; // machines per generation

/** The mixed-fleet point as a declarative scenario; pricing (when
 *  on) runs through the runner's memoized calibrate path. */
scenario::ScenarioSpec
fleetScenario(cluster::DispatchPolicy policy, std::uint64_t per_machine,
              double rate_per_machine, bool pricing)
{
    scenario::ScenarioSpec spec;
    spec.fleet = {{"cascade-5218", kPerType},
                  {"icelake-4314", kPerType}};
    spec.policy = policy;
    const unsigned machines = 2 * kPerType;
    spec.traffic.arrivalsPerSecond = rate_per_machine * machines;
    spec.traffic.invocations = per_machine * machines;
    spec.keepAlive = 10.0;
    spec.seed = 7;
    spec.calibrate = pricing;
    // The env cap keeps smoke/sanitizer calibrations coarse; 0 means
    // the full dedicated sweep.
    spec.calibrationLevels = pricing::envOr("LITMUS_CAL_LEVELS", 0);
    return spec;
}

using bench::relativeError;

/** Worst relative error between the type breakdown and the fleet
 *  totals (billed seconds, commercial and Litmus revenue). */
double
typeBreakdownError(const cluster::FleetReport &report)
{
    Seconds billed = 0;
    double commercial = 0, litmus = 0;
    for (const cluster::TypeReport &t : report.types) {
        billed += t.billedCpuSeconds;
        commercial += t.commercialUsd;
        litmus += t.litmusUsd;
    }
    if (report.billedCpuSeconds <= 0)
        fatal("fig23: fleet billed no CPU time");
    double err = relativeError(report.billedCpuSeconds, billed);
    err = std::max(err,
                   relativeError(report.commercialUsd, commercial));
    err = std::max(err, relativeError(report.litmusUsd, litmus));
    return err;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 23 (extension): heterogeneous fleet, "
                "cascade-5218 + icelake-4314 x all dispatch policies");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 625);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);
    const bool litmusPricing =
        pricing::envOr("LITMUS_FLEET_PRICING", 1) != 0;

    TextTable table({"policy", "type", "dispatched", "cold %",
                     "billed s", "commercial $", "litmus $",
                     "discount %"});
    double worstTypeError = 0, worstConservation = 0;
    double costCascadeShare = 0, rrCascadeShare = 0;
    double discountCascade = 0, discountIcelake = 0;
    for (cluster::DispatchPolicy policy : cluster::allPolicies()) {
        // Calibration is memoized process-wide (ProfileStore), so
        // the per-policy runners share two sweeps, not run eight.
        scenario::ScenarioRunner runner(fleetScenario(
            policy, perMachine, ratePerMachine, litmusPricing));
        const cluster::FleetReport &report = runner.run();

        worstTypeError =
            std::max(worstTypeError, typeBreakdownError(report));
        worstConservation = std::max(
            worstConservation,
            relativeError(report.billedCpuSeconds,
                          report.sumMachineBilledSeconds()));

        for (const cluster::TypeReport &t : report.types) {
            const double share =
                report.dispatched > 0
                    ? static_cast<double>(t.dispatched) /
                          report.dispatched
                    : 0.0;
            if (t.type == "cascade-5218") {
                if (policy == cluster::DispatchPolicy::CostAware) {
                    costCascadeShare = share;
                    discountCascade = t.discount();
                }
                if (policy == cluster::DispatchPolicy::RoundRobin)
                    rrCascadeShare = share;
            } else if (policy == cluster::DispatchPolicy::CostAware) {
                discountIcelake = t.discount();
            }
            table.addRow(
                {policyName(policy), t.type,
                 std::to_string(t.dispatched),
                 TextTable::num(t.dispatched > 0
                                    ? 100.0 * t.coldStarts /
                                          t.dispatched
                                    : 0.0,
                                1),
                 TextTable::num(t.billedCpuSeconds, 3),
                 TextTable::num(t.commercialUsd, 6),
                 TextTable::num(t.litmusUsd, 6),
                 TextTable::num(100 * t.discount(), 1)});
        }
    }
    table.print(std::cout);

    bench::printPaperMeasured(
        std::cout,
        "n/a (heterogeneity extension; the paper prices one server "
        "generation at a time) — expect cost-aware to shift load "
        "toward the faster generation and per-type billing to sum "
        "to the fleet",
        "cost-aware routes " +
            TextTable::num(100 * costCascadeShare, 1) +
            "% of traffic to cascade-5218 (round-robin " +
            TextTable::num(100 * rrCascadeShare, 1) +
            "%), type discounts " +
            TextTable::num(100 * discountCascade, 1) + "% / " +
            TextTable::num(100 * discountIcelake, 1) +
            "% (cascade/icelake), max type-breakdown error " +
            TextTable::num(worstTypeError, 9) +
            ", max conservation error " +
            TextTable::num(worstConservation, 9));

    bench::BenchJson json("BENCH_hetero.json");
    json.metric("", "cost_cascade_share", costCascadeShare);
    json.metric("", "rr_cascade_share", rrCascadeShare);
    json.metric("", "discount_cascade", discountCascade);
    json.metric("", "discount_icelake", discountIcelake);
    json.metric("", "max_type_breakdown_error", worstTypeError);
    json.metric("", "max_conservation_error", worstConservation);
    json.write();
    return 0;
}
