/**
 * @file
 * Figure 24 (extension): the scenario mix — every traffic model
 * through one fleet.
 *
 * The pricing trajectory so far only ever billed under open-loop
 * Poisson load. This bench serves the same fleet under all four
 * scenario traffic models — poisson, diurnal (sinusoid-modulated
 * rate), burst (on/off MMPP), and trace (CSV replay of a
 * deterministically synthesized arrival log) — with per-type Litmus
 * pricing, and reports per-model throughput, cold-start rate,
 * empirical arrival rate, and the aggregate discount.
 *
 * The conservation error is printed; Cluster::run checks it on every
 * run. Every model's thread-count determinism is a ctest
 * (StreamingDifferential.*Matrix, which also compares each against
 * upfront delivery and the exact-quantum oracle).
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default
 * 500), LITMUS_FLEET_RATE (per machine, default 500),
 * LITMUS_FLEET_PRICING (0 disables calibration + Litmus pricing),
 * LITMUS_CAL_LEVELS (calibration sweep cap), LITMUS_BENCH_JSON.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/traffic_source.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "scenario/scenario_runner.h"
#include "workload/suite.h"

using namespace litmus;

namespace
{

using bench::relativeError;

/**
 * Synthesize the replay trace: a deterministic Poisson-ish arrival
 * log at the given rate where every third row names a suite function
 * and the rest leave the field empty (sampled from the scenario pool
 * at replay). Exercises the full CSV surface: header, comments,
 * named and anonymous rows.
 */
std::string
writeSyntheticTrace(std::uint64_t rows, double rate)
{
    const std::string path = "fig24_trace.csv";
    std::ofstream csv(path);
    if (!csv)
        fatal("fig24: cannot write ", path);
    csv << "# synthesized by fig24_scenario_mix\n";
    csv << "arrival_seconds,function\n";
    const auto pool = workload::allFunctions();
    Rng rng(1234);
    double at = 0;
    csv.precision(9);
    for (std::uint64_t i = 0; i < rows; ++i) {
        at += rng.exponential(1.0 / rate);
        csv << std::fixed << at;
        if (i % 3 == 0)
            csv << "," << pool[rng.below(pool.size())]->name;
        else
            csv << ",";
        csv << "\n";
    }
    return path;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 24 (extension): scenario traffic mix — "
                "poisson / diurnal / burst / trace through one fleet");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 500);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);
    const bool litmusPricing =
        pricing::envOr("LITMUS_FLEET_PRICING", 1) != 0;

    constexpr unsigned kMachines = 2;
    const std::uint64_t invocations = perMachine * kMachines;
    const double rate = ratePerMachine * kMachines;
    // Expected span of the arrival trace; the diurnal/burst knobs
    // scale with it so every model completes several load cycles.
    const double span =
        static_cast<double>(invocations) / rate;

    const std::string tracePath =
        writeSyntheticTrace(invocations, rate);

    const auto baseScenario = [&](const std::string &model) {
        scenario::ScenarioSpec spec;
        spec.fleet = {{"cascade-5218", kMachines}};
        spec.policy = cluster::DispatchPolicy::WarmthAware;
        spec.traffic.model = model;
        spec.traffic.arrivalsPerSecond = rate;
        spec.traffic.invocations = invocations;
        spec.traffic.diurnalPeriod = std::max(0.05, span / 4);
        spec.traffic.diurnalAmplitude = 0.9;
        spec.traffic.burstOn = std::max(0.02, span / 10);
        spec.traffic.burstOff = std::max(0.06, 3 * span / 10);
        spec.traffic.tracePath = tracePath;
        spec.keepAlive = 10.0;
        spec.seed = 7;
        spec.calibrate = litmusPricing;
        spec.calibrationLevels = pricing::envOr("LITMUS_CAL_LEVELS", 0);
        return spec;
    };

    TextTable table({"model", "arrivals", "served/s", "empirical/s",
                     "cold %", "billed s", "discount %"});
    bench::BenchJson json("BENCH_scenarios.json");
    double worstConservation = 0;
    double discountSum = 0, commercialSum = 0, litmusSum = 0;
    for (const std::string model :
         {"poisson", "diurnal", "burst", "trace"}) {
        auto spec = baseScenario(model);
        spec.threads = 1;
        scenario::ScenarioRunner runner(spec);
        const cluster::FleetReport &report = runner.run();

        worstConservation = std::max(
            worstConservation,
            relativeError(report.billedCpuSeconds,
                          report.sumMachineBilledSeconds()));

        // Mean rate the model actually realized: regenerate the
        // arrival trace from the seed Cluster::run draws arrivals
        // with (identical stream to the run) and measure count over
        // its span — the post-drain makespan would understate it.
        Rng traceRng(cluster::deriveArrivalSeed(spec.seed));
        const auto arrivals =
            scenario::makeTrafficModel(spec.traffic)
                ->generate(traceRng, spec.functionPool());
        const double traceSpan =
            arrivals.back().arrival > 0 ? arrivals.back().arrival : 1.0;
        const double empirical =
            static_cast<double>(arrivals.size()) / traceSpan;

        commercialSum += report.commercialUsd;
        litmusSum += report.litmusUsd;
        discountSum += report.discount();

        table.addRow({model, std::to_string(report.arrivals),
                      TextTable::num(report.throughput(), 0),
                      TextTable::num(empirical, 0),
                      TextTable::num(100 * report.coldStartRate(), 1),
                      TextTable::num(report.billedCpuSeconds, 3),
                      TextTable::num(100 * report.discount(), 1)});

        json.metric(model, "throughput", report.throughput());
        json.metric(model, "empirical_rate", empirical);
        json.metric(model, "cold_rate", report.coldStartRate());
        json.metric(model, "billed_cpu_seconds",
                    report.billedCpuSeconds);
        json.metric(model, "discount", report.discount());
    }

    table.print(std::cout);

    const double aggregateDiscount =
        commercialSum > 0 ? 1.0 - litmusSum / commercialSum : 0.0;
    bench::printPaperMeasured(
        std::cout,
        "n/a (scenario extension; the paper bills under synthetic "
        "steady-state only) — expect every model deterministic under "
        "threading",
        "aggregate discount " +
            TextTable::num(100 * aggregateDiscount, 1) +
            "% across 4 traffic models, max conservation error " +
            TextTable::num(worstConservation, 9));

    json.metric("", "aggregate_discount", aggregateDiscount);
    json.metric("", "mean_model_discount", discountSum / 4);
    json.metric("", "max_conservation_error", worstConservation);
    json.write();
    return 0;
}
