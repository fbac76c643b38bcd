/**
 * @file
 * The fleet figures (extensions): the paper prices invocations on one
 * machine; Figures 22-26 check that the pricing holds across a whole
 * fleet, under every dispatch policy, mixed server generations, every
 * traffic model, machine failure and trace-scale arrivals.
 *
 * A fleet figure is a list of rows, each a labelled scenario served by
 * its own scenario::ScenarioRunner, printed as a table of columns over
 * the finished reports; its paper=/measured= footer and its
 * bench-out/BENCH_<name>.json artifact are computed from the same
 * reports. Calibrations are memoized process-wide (ProfileStore), so
 * priced rows share one sweep per machine type.
 *
 * The figures only measure and print: Cluster::run checks
 * conservation, the invocation flow and the type breakdown on every
 * run, and the cross-run equalities (thread counts, the exact-quantum
 * oracle, streaming vs upfront ledgers) are gtests on
 * tests/fleet_run.h (EventCoreDifferential, StreamingDifferential,
 * FaultCluster, Cluster.HeterogeneousThreadedRunnerIsDeterministic).
 * Figure 25 fails when its fault campaign kills nothing; Figure 26
 * fails when a cell's streaming and upfront totals differ, when a
 * streaming serve's peak RSS passes kRssCeilingMb, and (past the small
 * scale, LITMUS_BENCH_STRICT != 0) when the arrival residency or the
 * RSS shape breaks its claim.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, Figures
 * 22-25), LITMUS_CAL_LEVELS (calibration level cap, 0 = the full
 * dedicated sweep; Figures 23-24), LITMUS_TRACE_SCALE (small |
 * standard | full; Figure 26) and LITMUS_BENCH_STRICT.
 */

#include "fleet_figures.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cluster/traffic_source.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "scenario/azure_trace.h"
#include "scenario/scenario_runner.h"
#include "workload/suite.h"

namespace litmus::bench
{
namespace
{

using cluster::DispatchPolicy;
using cluster::FleetReport;
using cluster::TypeReport;
using scenario::ScenarioSpec;

/** Open-loop arrivals per second per machine (Figures 22-25). */
constexpr double kRatePerMachine = 500;

/** The most peak RSS any Figure 26 streaming serve may reach. */
constexpr double kRssCeilingMb = 2048;

/**
 * Poisson load on @p fleet routed by @p policy: @p per_machine arrivals
 * (LITMUS_FLEET_INVOCATIONS overrides it) at kRatePerMachine for each
 * machine, with a 10 s keep-alive and seed 7.
 */
ScenarioSpec
fleetSpec(std::vector<cluster::MachineGroup> fleet, DispatchPolicy policy,
          unsigned per_machine)
{
    ScenarioSpec spec;
    spec.fleet = std::move(fleet);
    spec.policy = policy;
    unsigned machines = 0;
    for (const cluster::MachineGroup &group : spec.fleet)
        machines += group.count;
    spec.traffic.arrivalsPerSecond = kRatePerMachine * machines;
    const std::uint64_t invocations =
        envOr("LITMUS_FLEET_INVOCATIONS", per_machine);
    spec.traffic.invocations = invocations * machines;
    spec.keepAlive = 10.0;
    spec.seed = 7;
    return spec;
}

/** @p spec with Litmus pricing from in-process calibrations, capped at
 *  LITMUS_CAL_LEVELS levels. */
ScenarioSpec
priced(ScenarioSpec spec)
{
    spec.calibrate = true;
    spec.calibrationLevels = envOr("LITMUS_CAL_LEVELS", 0);
    return spec;
}

/** One table row: its label cells and what it measured. */
template <typename Data>
struct Row
{
    std::vector<std::string> labels;
    Data data;
};

using Served = Row<FleetReport>;

/** Serve each row's scenario through its own runner, in order. */
std::vector<Served>
serve(const std::vector<Row<ScenarioSpec>> &rows)
{
    std::vector<Served> served;
    for (const Row<ScenarioSpec> &row : rows)
        served.push_back(
            {row.labels, scenario::ScenarioRunner(row.data).run()});
    return served;
}

/** The data of the row labelled @p labels. */
template <typename Data>
const Data &
find(const std::vector<Row<Data>> &rows,
     const std::vector<std::string> &labels)
{
    for (const Row<Data> &row : rows) {
        if (row.labels == labels)
            return row.data;
    }
    fatal("fleet figure: no row labelled ", labels.front());
}

/**
 * A column over a row's data: a table cell (header set), a JSON
 * metric under the row's group (key set), or both. The cell prints
 * scale * value with @c digits decimals; the metric is the value.
 */
template <typename Data>
struct Column
{
    const char *header;
    const char *key;
    std::function<double(const Data &)> value;
    int digits = 0;
    double scale = 1;
};

/**
 * Print @p rows as a table, @p headers over the label cells and then
 * every column with a header, and record every keyed column in
 * @p json, grouped under the row's labels joined by '_'.
 */
template <typename Data>
void
tabulate(BenchJson &json, std::vector<std::string> headers,
         const std::vector<Row<Data>> &rows,
         const std::vector<Column<Data>> &columns)
{
    for (const Column<Data> &column : columns) {
        if (column.header)
            headers.push_back(column.header);
    }
    TextTable table(std::move(headers));
    for (const Row<Data> &row : rows) {
        std::vector<std::string> cells = row.labels;
        std::string group;
        for (const std::string &label : row.labels)
            group += (group.empty() ? "" : "_") + label;
        for (const Column<Data> &column : columns) {
            const double value = column.value(row.data);
            if (column.header)
                cells.push_back(
                    TextTable::num(column.scale * value, column.digits));
            if (column.key)
                json.metric(group, column.key, value);
        }
        table.addRow(std::move(cells));
    }
    table.print(std::cout);
}

/** The largest @p error over @p rows. */
template <typename Data, typename Error>
double
worst(const std::vector<Row<Data>> &rows, Error error)
{
    double err = 0;
    for (const Row<Data> &row : rows)
        err = std::max(err, error(row.data));
    return err;
}

/**
 * Fleet billed + absorbed seconds against the machine ledgers' billed
 * + absorbed sums: the report's two independent aggregations.
 */
double
conservationError(const FleetReport &report)
{
    // A zeroed fleet accumulator is itself a conservation bug, not a
    // pass — never mask it.
    if (report.billedCpuSeconds <= 0)
        fatal("fleet figure: fleet billed no CPU time");
    return relativeError(
        report.billedCpuSeconds + report.absorbedCpuSeconds,
        report.sumMachineBilledSeconds() +
            report.sumMachineAbsorbedSeconds());
}

/** Worst relative error between the type breakdown and the fleet
 *  totals (billed seconds, commercial and Litmus revenue). */
double
typeBreakdownError(const FleetReport &report)
{
    cluster::ServeTally types;
    for (const TypeReport &t : report.types)
        types += t;
    return std::max(
        {relativeError(report.billedCpuSeconds, types.billedCpuSeconds),
         relativeError(report.commercialUsd, types.commercialUsd),
         relativeError(report.litmusUsd, types.litmusUsd)});
}

/**
 * Synthesize Figure 24's replay trace: a deterministic Poisson-ish
 * arrival log at @p rate where every third row names a suite function
 * and the rest leave the field empty (sampled from the scenario pool
 * at replay). Exercises the full CSV surface: header, comments, named
 * and anonymous rows.
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
        csv << std::fixed << at << ",";
        if (i % 3 == 0)
            csv << pool[rng.below(pool.size())]->name;
        csv << "\n";
    }
    return path;
}

/**
 * The mean rate @p spec's traffic model realizes: its arrival trace
 * regenerated from the seed Cluster::run draws arrivals with (the
 * identical stream), counted over its span — the post-drain makespan
 * would understate it.
 */
double
empiricalRate(const ScenarioSpec &spec)
{
    Rng rng(cluster::deriveArrivalSeed(spec.seed));
    const auto arrivals = scenario::makeTrafficModel(spec.traffic)
                              ->generate(rng, spec.functionPool());
    const double span =
        arrivals.back().arrival > 0 ? arrivals.back().arrival : 1.0;
    return static_cast<double>(arrivals.size()) / span;
}

/** One Figure 26 cell: an Azure-shaped file and whether the upfront
 *  (materialize-everything) twin is affordable for it. */
struct TraceCell
{
    std::uint64_t functions;
    unsigned minutes;
    double perMinute;
    bool upfront;

    std::string name() const
    {
        return "f" + std::to_string(functions) + "_m" +
               std::to_string(minutes);
    }
};

std::vector<TraceCell>
traceCells(const std::string &scale)
{
    if (scale == "small")
        return {{1000, 5, 300.0, true}};
    // Function sweep at one fleet-wide volume (see fig26TraceScale),
    // then the duration axis: the day cell is where the upfront
    // twin's resident trace grows 24x.
    std::vector<TraceCell> cells = {
        {1000, 60, 5000.0, true},   {10000, 60, 5000.0, true},
        {100000, 60, 5000.0, true}, {1000, 1440, 500.0, true}};
    if (scale == "full") {
        cells.push_back({1000000, 60, 5000.0, false});
        cells.push_back({10000, 1440, 2000.0, false});
    } else if (scale != "standard") {
        fatal("fig26: unknown LITMUS_TRACE_SCALE '", scale,
              "' (want small | standard | full)");
    }
    return cells;
}

/** A report with what serving it cost the host. */
struct Measured : FleetReport
{
    double peakRssMb = 0;
    double firstArrivalS = 0;
    double serveWallS = 0;
};

/**
 * Serve the Azure file at @p path to completion and measure it,
 * starting with the time from a cold model build to the first arrival
 * (the latency a fleet waits before dispatch can begin). @p upfront
 * serves the runner's config with its model wrapped in UpfrontTraffic
 * — the whole trace resident before the first dispatch — instead of
 * streaming it.
 */
Measured
measure(const std::string &path, bool upfront)
{
    ScenarioSpec spec;
    spec.fleet = {{"cascade-5218", 2}};
    spec.set("traffic", "azure"); // drops the 10000-arrival default
    spec.traffic.azurePath = path;
    spec.keepAlive = 5.0;
    spec.seed = 7;
    const auto pool = spec.functionPool();
    const double firstArrival = wallSeconds([&] {
        const auto model = scenario::makeTrafficModel(spec.traffic);
        Rng rng(cluster::deriveArrivalSeed(spec.seed));
        cluster::Invocation inv;
        if (upfront ? model->generate(rng, pool).empty()
                    : !model->open(rng, pool)->next(inv))
            fatal("fig26: empty trace ", path);
    });
    const bool rss = resetPeakRss();
    FleetReport report;
    const double wall = wallSeconds([&] {
        scenario::ScenarioRunner runner(spec);
        cluster::ClusterConfig cfg = runner.clusterConfig();
        const cluster::UpfrontTraffic replay(*cfg.traffic);
        if (upfront)
            cfg.traffic = &replay;
        report = cluster::Cluster(cfg).run();
    });
    const double peakMb =
        rss ? static_cast<double>(peakRssBytes()) / (1 << 20) : 0;
    return {std::move(report), peakMb, firstArrival, wall};
}

} // namespace

void
fig22FleetScaling()
{
    const auto policies = canonical(cluster::kDispatchPolicies);
    printBanner(std::cout,
                "Figure 22 (extension): fleet scaling, 1 -> 16 "
                "machines x " +
                    std::to_string(policies.size()) +
                    " dispatch policies");

    // Weak scaling: every machine sees the same arrival rate.
    std::vector<Row<ScenarioSpec>> rows;
    for (unsigned machines : {1u, 2u, 4u, 8u, 16u}) {
        for (const auto &[policy, name] : policies)
            rows.push_back(
                {{std::to_string(machines), std::string(name)},
                 fleetSpec({{"cascade-5218", machines}}, policy, 625)});
    }
    const std::vector<Served> served = serve(rows);
    BenchJson json("BENCH_fleet.json");
    tabulate(json, {"machines", "policy"}, served,
             {{"invocations", nullptr, &FleetReport::dispatched},
              {"served/s", nullptr, &FleetReport::throughput},
              {"cold %", nullptr, &FleetReport::coldStartRate, 1, 100},
              {"mean lat ms", nullptr, &FleetReport::meanLatency, 1, 1e3},
              {"billed s", nullptr, &FleetReport::billedCpuSeconds, 3},
              {"conservation err", nullptr, conservationError, 9}});

    const FleetReport &rr1 = find(served, {"1", "round-robin"});
    const FleetReport &rr16 = find(served, {"16", "round-robin"});
    const FleetReport &warm16 = find(served, {"16", "warmth-aware"});
    const double scaling =
        rr1.throughput() > 0 ? rr16.throughput() / rr1.throughput() : 0.0;
    const double coldRr16 = rr16.coldStartRate();
    const double coldWarm16 = warm16.coldStartRate();
    const double worstConservation = worst(served, conservationError);
    printPaperMeasured(
        std::cout,
        "n/a (fleet extension; single-machine Litmus only) — expect "
        "near-linear weak scaling and warmth-aware < round-robin "
        "cold starts",
        "throughput x" + TextTable::num(scaling, 2) +
            " from 1 to 16 machines, cold starts " +
            TextTable::num(100 * coldRr16, 1) + "% (round-robin) vs " +
            TextTable::num(100 * coldWarm16, 1) +
            "% (warmth-aware), max price-conservation error " +
            TextTable::num(worstConservation, 9));

    json.metric("", "scaling_throughput_x", scaling);
    json.metric("", "cold_rate_rr_16", coldRr16);
    json.metric("", "cold_rate_warmth_16", coldWarm16);
    json.metric("", "max_conservation_error", worstConservation);
    const cluster::SchedulerCounters &sched = warm16.sched;
    for (const auto &[key, value] :
         {std::pair{"events_arrival", sched.eventsArrival},
          {"events_retry", sched.eventsRetry},
          {"events_fault", sched.eventsFault},
          {"events_keepalive", sched.eventsKeepAlive},
          {"events_progress", sched.eventsProgress},
          {"barriers", sched.barriers},
          {"barriers_elided", sched.barriersElided},
          {"idle_quanta_skipped", sched.idleQuantaSkipped}})
        json.metric("sched_event", key, static_cast<double>(value));
    json.write();
}

void
fig23HeteroFleet()
{
    printBanner(std::cout,
                "Figure 23 (extension): heterogeneous fleet, "
                "cascade-5218 + icelake-4314 x all dispatch policies");

    // The paper's two testbeds side by side, each type billed through
    // its own calibrated discount model.
    std::vector<Row<ScenarioSpec>> rows;
    for (const auto &[policy, name] : canonical(cluster::kDispatchPolicies))
        rows.push_back(
            {{std::string(name)},
             priced(fleetSpec({{"cascade-5218", 4}, {"icelake-4314", 4}},
                              policy, 625))});
    const std::vector<Served> served = serve(rows);
    std::vector<Row<TypeReport>> types;
    for (const Served &fleet : served) {
        for (const TypeReport &t : fleet.data.types)
            types.push_back({{fleet.labels.front(), t.type}, t});
    }
    BenchJson json("BENCH_hetero.json");
    tabulate(json, {"policy", "type"}, types,
             {{"dispatched", nullptr, &TypeReport::dispatched},
              {"cold %", nullptr,
               [](const TypeReport &t) {
                   return t.dispatched > 0
                              ? 100.0 * t.coldStarts / t.dispatched
                              : 0.0;
               },
               1},
              {"billed s", nullptr, &TypeReport::billedCpuSeconds, 3},
              {"commercial $", nullptr, &TypeReport::commercialUsd, 6},
              {"litmus $", nullptr, &TypeReport::litmusUsd, 6},
              {"discount %", nullptr, &TypeReport::discount, 1, 100}});

    const auto cascadeShare = [&](const char *policy) {
        const FleetReport &fleet = find(served, {policy});
        return fleet.dispatched > 0
                   ? static_cast<double>(
                         find(types, {policy, "cascade-5218"}).dispatched) /
                         fleet.dispatched
                   : 0.0;
    };
    const double costCascadeShare = cascadeShare("cost-aware");
    const double rrCascadeShare = cascadeShare("round-robin");
    const double discountCascade =
        find(types, {"cost-aware", "cascade-5218"}).discount();
    const double discountIcelake =
        find(types, {"cost-aware", "icelake-4314"}).discount();
    const double worstTypeError = worst(served, typeBreakdownError);
    const double worstConservation = worst(served, conservationError);
    printPaperMeasured(
        std::cout,
        "n/a (heterogeneity extension; the paper prices one server "
        "generation at a time) — expect cost-aware to shift load "
        "toward the faster generation and per-type billing to sum "
        "to the fleet",
        "cost-aware routes " + TextTable::num(100 * costCascadeShare, 1) +
            "% of traffic to cascade-5218 (round-robin " +
            TextTable::num(100 * rrCascadeShare, 1) +
            "%), type discounts " +
            TextTable::num(100 * discountCascade, 1) + "% / " +
            TextTable::num(100 * discountIcelake, 1) +
            "% (cascade/icelake), max type-breakdown error " +
            TextTable::num(worstTypeError, 9) +
            ", max conservation error " +
            TextTable::num(worstConservation, 9));

    json.metric("", "cost_cascade_share", costCascadeShare);
    json.metric("", "rr_cascade_share", rrCascadeShare);
    json.metric("", "discount_cascade", discountCascade);
    json.metric("", "discount_icelake", discountIcelake);
    json.metric("", "max_type_breakdown_error", worstTypeError);
    json.metric("", "max_conservation_error", worstConservation);
    json.write();
}

void
fig24ScenarioMix()
{
    printBanner(std::cout,
                "Figure 24 (extension): scenario traffic mix — "
                "poisson / diurnal / burst / trace through one fleet");

    ScenarioSpec spec = priced(
        fleetSpec({{"cascade-5218", 2}}, DispatchPolicy::WarmthAware, 500));
    spec.threads = 1;
    scenario::TrafficSpec &traffic = spec.traffic;
    // Expected span of the arrival trace; the diurnal/burst knobs
    // scale with it so every model completes several load cycles.
    const double span =
        static_cast<double>(traffic.invocations) / traffic.arrivalsPerSecond;
    traffic.diurnalPeriod = std::max(0.05, span / 4);
    traffic.diurnalAmplitude = 0.9;
    traffic.burstOn = std::max(0.02, span / 10);
    traffic.burstOff = std::max(0.06, 3 * span / 10);
    traffic.tracePath =
        writeSyntheticTrace(traffic.invocations, traffic.arrivalsPerSecond);
    /** A served model and the rate its arrival trace realized. */
    struct ModelRun : FleetReport
    {
        double empiricalRate;
    };
    std::vector<Row<ModelRun>> runs;
    for (const char *model : {"poisson", "diurnal", "burst", "trace"}) {
        traffic.model = model;
        runs.push_back({{model},
                        {scenario::ScenarioRunner(spec).run(),
                         empiricalRate(spec)}});
    }
    BenchJson json("BENCH_scenarios.json");
    tabulate(json, {"model"}, runs,
             {{"arrivals", nullptr, &ModelRun::arrivals},
              {"served/s", "throughput", &ModelRun::throughput},
              {"empirical/s", "empirical_rate", &ModelRun::empiricalRate},
              {"cold %", "cold_rate", &ModelRun::coldStartRate, 1, 100},
              {"billed s", "billed_cpu_seconds",
               &ModelRun::billedCpuSeconds, 3},
              {"discount %", "discount", &ModelRun::discount, 1, 100}});

    double discountSum = 0, commercialSum = 0, litmusSum = 0;
    for (const Row<ModelRun> &run : runs) {
        commercialSum += run.data.commercialUsd;
        litmusSum += run.data.litmusUsd;
        discountSum += run.data.discount();
    }
    const double aggregateDiscount =
        commercialSum > 0 ? 1.0 - litmusSum / commercialSum : 0.0;
    const double worstConservation = worst(runs, conservationError);
    printPaperMeasured(
        std::cout,
        "n/a (scenario extension; the paper bills under synthetic "
        "steady-state only) — expect every model deterministic under "
        "threading",
        "aggregate discount " + TextTable::num(100 * aggregateDiscount, 1) +
            "% across 4 traffic models, max conservation error " +
            TextTable::num(worstConservation, 9));

    json.metric("", "aggregate_discount", aggregateDiscount);
    json.metric("", "mean_model_discount", discountSum / 4);
    json.metric("", "max_conservation_error", worstConservation);
    json.write();
}

void
fig25Chaos()
{
    printBanner(std::cout,
                "Figure 25 (extension): chaos — fault-rate sweep x "
                "retry policies, billing conserved through crashes");

    // One Poisson-loaded fleet through a crash campaign that scales
    // with the trace span, so it bites at smoke sizes and full sizes
    // alike: ~4 stochastic crashes per machine plus two scripted ones
    // pinned mid-burst, with restarts short enough that capacity loss
    // never stalls the drain.
    ScenarioSpec backoff =
        fleetSpec({{"cascade-5218", 2}}, DispatchPolicy::LeastLoaded, 400);
    backoff.seed = 11;
    backoff.threads = 1;
    const double span = static_cast<double>(backoff.traffic.invocations) /
                        backoff.traffic.arrivalsPerSecond;
    cluster::FaultSpec &fault = backoff.fault;
    fault.crashMtbf = span / 4;
    fault.restartDelay = std::max(1e-3, span / 25);
    fault.crashAt = {{span * 0.25, 0}, {span * 0.6, 1}};
    fault.retry = cluster::RetryPolicy::RetryBackoff;
    fault.retryMax = 4;
    fault.retryBackoff = std::max(1e-3, span / 50);
    fault.billing = cluster::FaultBilling::ProviderAbsorbs;
    // Every other cell changes one thing. Billing mode changes who
    // pays, never what runs: the tenant-pays twin executes the
    // identical schedule. Full chaos adds slowdown and blindness
    // windows on top of the crashes.
    ScenarioSpec drop = backoff, once = backoff, tenantPays = backoff,
                 chaos = backoff;
    drop.fault.retry = cluster::RetryPolicy::Drop;
    once.fault.retry = cluster::RetryPolicy::RetryOnce;
    tenantPays.fault.billing = cluster::FaultBilling::TenantPays;
    chaos.fault.slowMtbf = span / 3;
    chaos.fault.slowDuration = std::max(2e-3, span / 10);
    chaos.fault.slowFactor = 0.6;
    chaos.fault.blindMtbf = span / 3;
    chaos.fault.blindDuration = std::max(2e-3, span / 12);
    const std::vector<Served> served =
        serve({{{"drop"}, drop},
               {{"retry-once"}, once},
               {{"retry-backoff"}, backoff},
               {{"tenant-pays"}, tenantPays},
               {{"full-chaos"}, chaos}});
    BenchJson json("BENCH_chaos.json");
    tabulate(
        json, {"cell"}, served,
        {{"crashes", "crashes", &FleetReport::crashes},
         {"killed", "killed", &FleetReport::killedInvocations},
         {"retried", "retries", &FleetReport::retries},
         {"abandoned", "abandoned", &FleetReport::abandoned},
         {"lost s", "lost_cpu_seconds", &FleetReport::lostCpuSeconds, 4},
         {"absorbed s", "absorbed_cpu_seconds",
          &FleetReport::absorbedCpuSeconds, 4},
         {nullptr, "absorbed_usd", &FleetReport::absorbedUsd},
         {nullptr, "billed_cpu_seconds", &FleetReport::billedCpuSeconds},
         {nullptr, "completions", &FleetReport::completions},
         {"cons err", "conservation_error", conservationError, 9}});

    // The tenant's billed seconds must equal the provider's billed +
    // absorbed: the two modes split one total.
    const FleetReport &provider = find(served, {"retry-backoff"});
    const FleetReport &tenant = find(served, {"tenant-pays"});
    const double splitError =
        relativeError(tenant.billedCpuSeconds,
                      provider.billedCpuSeconds + provider.absorbedCpuSeconds);
    const double splitUsdError = relativeError(
        tenant.commercialUsd, provider.commercialUsd + provider.absorbedUsd);
    std::cout << "\nbilling split tenant-pays vs provider-absorbs: "
              << TextTable::num(splitError, 9) << " s err, "
              << TextTable::num(splitUsdError, 9) << " $ err\n";

    std::uint64_t totalKilled = 0;
    for (const Served &row : served)
        totalKilled += row.data.killedInvocations;
    const double worstConservation = worst(served, conservationError);
    printPaperMeasured(
        std::cout,
        "n/a (robustness extension; the paper bills on machines that "
        "stay up) — expect conservation <= 1e-6 through crashes, the "
        "billing modes to split one total, and bit-identical reports "
        "under threading",
        std::to_string(find(served, {"full-chaos"}).crashes) +
            " crashes in the chaos cell, " + std::to_string(totalKilled) +
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
}

/**
 * Figure 26: the streaming arrival path exists so day-long,
 * 10^5-10^6-function traces fit in bounded memory. Azure-shaped CSVs
 * along two axes — function count 10^3 -> 10^5 (10^6 at full scale)
 * at a constant fleet-wide arrival volume, and trace length hour ->
 * day — are served under both delivery modes, with per-cell peak RSS,
 * time-to-first-arrival (parse + first pull), wall time and the
 * arrival-flow counters.
 *
 * The function sweep holds the served volume constant because
 * everything downstream of arrivals (billing ledgers retain one record
 * per invocation) is O(served) in BOTH modes. What separates the modes
 * is arrivals resident at once: upfront's buffered max IS the whole
 * trace, streaming's is one azure minute (<= 10% of the trace on every
 * standard cell). All streaming cells run before any upfront cell:
 * glibc retains freed pages, so the upfront runs' large vectors would
 * otherwise put a floor under later streaming measurements.
 */
void
fig26TraceScale()
{
    printBanner(std::cout,
                "Figure 26 (extension): trace-scale serving — "
                "streaming vs upfront arrivals on Azure-shaped "
                "workloads");

    const char *scaleEnv = std::getenv("LITMUS_TRACE_SCALE");
    const std::string scale = scaleEnv && *scaleEnv ? scaleEnv : "standard";
    const bool strict = benchStrict();

    const std::vector<TraceCell> cells = traceCells(scale);
    const auto path = [](const TraceCell &cell) {
        return "fig26_azure_" + cell.name() + ".csv";
    };
    for (const TraceCell &cell : cells) {
        scenario::AzureTraceGenSpec gen;
        gen.functions = cell.functions;
        gen.minutes = cell.minutes;
        gen.invocationsPerMinute = cell.perMinute;
        gen.seed = 26;
        const std::uint64_t total =
            scenario::writeAzureShapedCsv(path(cell), gen);
        std::cout << "generated " << path(cell) << ": " << cell.functions
                  << " functions x " << cell.minutes << " min, " << total
                  << " invocations\n";
    }

    // Streaming sweep first, then the upfront twins.
    std::vector<Row<Measured>> rows;
    for (const bool upfront : {false, true}) {
        for (const TraceCell &cell : cells) {
            if (upfront && !cell.upfront)
                continue;
            rows.push_back({{cell.name(), upfront ? "upfront" : "streaming"},
                            measure(path(cell), upfront)});
            if (upfront &&
                !cluster::identicalTotals(
                    find(rows, {cell.name(), "streaming"}), rows.back().data))
                fatal("fig26: streaming vs upfront totals diverged on ",
                      cell.name());
        }
    }
    BenchJson json("BENCH_trace_scale.json");
    tabulate(
        json, {"cell", "mode"}, rows,
        {{"arrivals", "arrivals", &Measured::arrivals},
         {"peak RSS MB", "peak_rss_mb", &Measured::peakRssMb, 1},
         {"first arrival ms", "first_arrival_s", &Measured::firstArrivalS,
          2, 1e3},
         {"serve s", "serve_wall_s", &Measured::serveWallS, 2},
         {nullptr, "throughput", &Measured::throughput},
         {nullptr, "generated",
          [](const Measured &m) { return m.arrivalFlow.generated; }},
         {nullptr, "pulled",
          [](const Measured &m) { return m.arrivalFlow.pulled; }},
         {"buffered max", "buffered_max",
          [](const Measured &m) { return m.arrivalFlow.bufferedMax; }}});

    // Arrival residency (exact, no /proc needed): upfront's resident
    // trace IS the whole run (buffered max == arrivals, so it grows
    // linearly with trace length); streaming holds at most one azure
    // minute, and its peak RSS stays under the ceiling (0 without
    // /proc).
    const bool shapes = strict && scale != "small";
    for (const Row<Measured> &row : rows) {
        const Measured &m = row.data;
        const std::uint64_t held = m.arrivalFlow.bufferedMax;
        if (row.labels[1] == "upfront") {
            if (shapes && held != m.arrivals)
                fatal("fig26: upfront buffered max ", held,
                      " != whole trace ", m.arrivals, " on ", row.labels[0]);
            continue;
        }
        if (shapes && 10 * held > m.arrivals)
            fatal("fig26: streaming buffered max ", held,
                  " above 10% of the trace (", m.arrivals, " arrivals) on ",
                  row.labels[0]);
        if (m.peakRssMb > kRssCeilingMb)
            fatal("fig26: streaming peak RSS ", TextTable::num(m.peakRssMb, 1),
                  " MB exceeds the ", kRssCeilingMb, " MB ceiling");
    }

    // RSS shape: flat across the constant-volume function sweep (the
    // first three cells past the small scale), and the day-trace cell
    // (the last with an upfront twin) cheaper streamed than upfront.
    const Row<Measured> &upLast = rows.back();
    const Measured &streamLast = find(rows, {upLast.labels[0], "streaming"});
    const bool rssAvailable = rows.front().data.peakRssMb > 0;
    double streamMin = rows[0].data.peakRssMb, streamMax = streamMin;
    if (rssAvailable && scale != "small") {
        std::tie(streamMin, streamMax) =
            std::minmax({rows[0].data.peakRssMb, rows[1].data.peakRssMb,
                         rows[2].data.peakRssMb});
        if (strict && streamMax > 2.0 * streamMin)
            fatal("fig26: streaming peak RSS not flat across the "
                  "function sweep: ", TextTable::num(streamMin, 1),
                  " .. ", TextTable::num(streamMax, 1), " MB");
        if (strict && upLast.data.peakRssMb < streamLast.peakRssMb)
            fatal("fig26: upfront peak RSS ",
                  TextTable::num(upLast.data.peakRssMb, 1),
                  " MB below streaming's ",
                  TextTable::num(streamLast.peakRssMb, 1),
                  " MB — the materialized vector should cost more, not "
                  "less");
    }
    if (!rssAvailable)
        std::cout << "(/proc unavailable — RSS assertions skipped)\n";

    printPaperMeasured(
        std::cout,
        "n/a (serving-scale extension; the paper's fleet serves "
        "synthetic steady-state) — expect streaming peak RSS flat "
        "across the function sweep, one resident azure minute vs "
        "upfront's whole trace, and bit-identical billing vs "
        "upfront",
        "streaming peak " +
            (rssAvailable ? TextTable::num(streamMax, 1) + " MB"
                          : std::string("n/a")) +
            " across " + std::to_string(cells.size()) +
            " cells (buffered max " +
            std::to_string(streamLast.arrivalFlow.bufferedMax) + " of " +
            std::to_string(streamLast.arrivals) + " day-trace arrivals)");

    json.metric("", "cells", static_cast<double>(cells.size()));
    json.metric("", "rss_available", rssAvailable ? 1 : 0);
    json.write();
}

} // namespace litmus::bench
