/**
 * @file
 * Figure 26 (extension): trace-scale serving — streaming vs upfront
 * arrival delivery on Azure-dataset-shaped workloads.
 *
 * The streaming arrival path exists so day-long, 10^5-10^6-function
 * traces fit in bounded memory. This bench generates Azure-shaped
 * CSVs along two axes — function count 10^3 -> 10^5 (10^6 at full
 * scale) at a constant fleet-wide arrival volume, and trace length
 * hour -> day — serves each under both delivery modes, and reports
 * per-cell peak RSS, time-to-first-arrival (parse + first pull),
 * wall time, and the arrival-flow counters (generated / pulled /
 * buffered max).
 *
 * The function sweep holds the served volume constant because
 * everything downstream of arrivals (billing ledgers retain one
 * record per invocation) is O(served) in BOTH modes — a sweep that
 * scaled volume with function count would measure the ledger, not
 * the delivery path. What separates the modes is arrivals resident
 * at once, and that is asserted exactly: upfront's buffered max IS
 * the whole trace (grows linearly hour -> day), streaming's is one
 * azure minute (<= 10% of the trace on every standard cell).
 *
 * Always enforced:
 *  - every cell where both modes run has identical fleet totals;
 *  - streaming peak RSS stays under LITMUS_TRACE_RSS_CEILING_MB.
 * The record-for-record ledger differential (streaming vs upfront, at
 * several thread counts, with and without chaos) is ctest's
 * StreamingDifferential suite.
 * At standard/full scale with LITMUS_BENCH_STRICT != 0 the bench
 * additionally asserts the exact buffered-max shape above and (with
 * /proc available) that the streaming peak stays flat (<= 2x)
 * across the 10^3 -> 10^5 function sweep and below the upfront
 * peak.
 *
 * All streaming cells run before any upfront cell: glibc retains
 * freed pages, so the upfront runs' large vectors would otherwise
 * put a floor under later streaming measurements.
 *
 * Knobs: LITMUS_TRACE_SCALE (small | standard | full; default
 * standard), LITMUS_TRACE_RSS_CEILING_MB (default 2048),
 * LITMUS_BENCH_STRICT (0 relaxes the RSS-shape assertions),
 * LITMUS_BENCH_JSON.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/traffic_source.h"
#include "common/rng.h"
#include "common/text_table.h"
#include "core/experiment.h"
#include "scenario/azure_trace.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

using bench::BenchJson;
using cluster::identicalTotals;

/** One sweep cell: an Azure-shaped file and whether the upfront
 *  (materialize-everything) twin is affordable for it. */
struct Cell
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

std::vector<Cell>
cellsFor(const std::string &scale)
{
    if (scale == "small")
        return {{1000, 5, 300.0, true}};
    // Function sweep at one fleet-wide volume (see the file
    // comment), then the duration axis: the day cell is where the
    // upfront twin's resident trace grows 24x.
    std::vector<Cell> cells = {
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

scenario::ScenarioSpec
cellSpec(const std::string &path)
{
    scenario::ScenarioSpec spec;
    spec.fleet = {{"cascade-5218", 2}};
    spec.set("traffic", "azure"); // drops the 10000-arrival default
    spec.traffic.azurePath = path;
    spec.keepAlive = 5.0;
    spec.seed = 7;
    return spec;
}

/**
 * Serve @p spec to completion. @p upfront serves the runner's config
 * copied with its model wrapped in UpfrontTraffic — the whole trace
 * resident before the first dispatch — instead of streaming it.
 */
cluster::FleetReport
serve(scenario::ScenarioSpec spec, bool upfront)
{
    scenario::ScenarioRunner runner(std::move(spec));
    cluster::ClusterConfig cfg = runner.clusterConfig();
    const cluster::UpfrontTraffic replay(*cfg.traffic);
    if (upfront)
        cfg.traffic = &replay;
    cluster::Cluster fleet(cfg);
    return fleet.run();
}

/** Time from cold model build to the first arrival being available:
 *  the latency a fleet waits before dispatch can begin. */
double
timeToFirstArrival(const scenario::ScenarioSpec &spec, bool upfront)
{
    const auto pool = spec.functionPool();
    return bench::wallSeconds([&] {
        const auto model = scenario::makeTrafficModel(spec.traffic);
        Rng rng(cluster::deriveArrivalSeed(spec.seed));
        if (upfront) {
            const auto trace = model->generate(rng, pool);
            if (trace.empty())
                fatal("fig26: empty upfront trace");
        } else {
            auto stream = model->open(rng, pool);
            cluster::Invocation inv;
            if (!stream->next(inv))
                fatal("fig26: empty stream");
        }
    });
}

/** One mode's measured serve of one cell. */
struct Measured
{
    cluster::FleetReport report;
    double peakRssMb = 0;
    double firstArrivalS = 0;
    double serveWallS = 0;
};

Measured
measure(const std::string &path, bool upfront)
{
    Measured m;
    m.firstArrivalS = timeToFirstArrival(cellSpec(path), upfront);
    const bool rss = bench::resetPeakRss();
    m.serveWallS = bench::wallSeconds(
        [&] { m.report = serve(cellSpec(path), upfront); });
    if (rss)
        m.peakRssMb =
            static_cast<double>(bench::peakRssBytes()) / (1 << 20);
    return m;
}

void
recordCell(BenchJson &json, const std::string &group, const Measured &m)
{
    json.metric(group, "arrivals",
                static_cast<double>(m.report.arrivals));
    json.metric(group, "peak_rss_mb", m.peakRssMb);
    json.metric(group, "first_arrival_s", m.firstArrivalS);
    json.metric(group, "serve_wall_s", m.serveWallS);
    json.metric(group, "throughput", m.report.throughput());
    json.metric(group, "generated",
                static_cast<double>(m.report.arrivalFlow.generated));
    json.metric(group, "pulled",
                static_cast<double>(m.report.arrivalFlow.pulled));
    json.metric(group, "buffered_max",
                static_cast<double>(m.report.arrivalFlow.bufferedMax));
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 26 (extension): trace-scale serving — "
                "streaming vs upfront arrivals on Azure-shaped "
                "workloads");

    const char *scaleEnv = std::getenv("LITMUS_TRACE_SCALE");
    const std::string scale =
        scaleEnv && *scaleEnv ? scaleEnv : "standard";
    const double ceilingMb =
        pricing::envOr("LITMUS_TRACE_RSS_CEILING_MB", 2048);
    const bool strict = pricing::envOr("LITMUS_BENCH_STRICT", 1) != 0;

    const std::vector<Cell> cells = cellsFor(scale);
    std::vector<std::string> paths;
    for (const Cell &cell : cells) {
        scenario::AzureTraceGenSpec gen;
        gen.functions = cell.functions;
        gen.minutes = cell.minutes;
        gen.invocationsPerMinute = cell.perMinute;
        gen.seed = 26;
        const std::string path =
            "fig26_azure_" + cell.name() + ".csv";
        const std::uint64_t total =
            scenario::writeAzureShapedCsv(path, gen);
        std::cout << "generated " << path << ": " << cell.functions
                  << " functions x " << cell.minutes << " min, "
                  << total << " invocations\n";
        paths.push_back(path);
    }

    // Streaming sweep first (see the file comment for why), then the
    // upfront twins.
    BenchJson json("BENCH_trace_scale.json");
    std::vector<Measured> streaming;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        streaming.push_back(measure(paths[i], false));
        recordCell(json, cells[i].name() + "_streaming",
                   streaming.back());
    }
    std::vector<std::size_t> upfrontIdx;
    std::vector<Measured> upfront;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (!cells[i].upfront)
            continue;
        upfrontIdx.push_back(i);
        upfront.push_back(measure(paths[i], true));
        recordCell(json, cells[i].name() + "_upfront",
                   upfront.back());
        if (!identicalTotals(streaming[i].report,
                             upfront.back().report))
            fatal("fig26: streaming vs upfront totals diverged on ",
                  cells[i].name());
    }

    TextTable table({"cell", "mode", "arrivals", "peak RSS MB",
                     "first arrival ms", "serve s", "buffered max"});
    const auto addRow = [&table](const Cell &cell, const char *mode,
                                 const Measured &m) {
        table.addRow({cell.name(), mode,
                      std::to_string(m.report.arrivals),
                      TextTable::num(m.peakRssMb, 1),
                      TextTable::num(1e3 * m.firstArrivalS, 2),
                      TextTable::num(m.serveWallS, 2),
                      std::to_string(m.report.arrivalFlow.bufferedMax)});
    };
    for (std::size_t i = 0; i < cells.size(); ++i)
        addRow(cells[i], "streaming", streaming[i]);
    for (std::size_t k = 0; k < upfront.size(); ++k)
        addRow(cells[upfrontIdx[k]], "upfront", upfront[k]);
    table.print(std::cout);

    // ---- arrival-residency gates (exact, no /proc needed) ----------
    // Upfront's resident trace IS the whole run (buffered max ==
    // arrivals, so it grows linearly with trace length); streaming
    // holds at most one azure minute.
    if (strict && scale != "small") {
        for (std::size_t k = 0; k < upfront.size(); ++k) {
            const auto &flow = upfront[k].report.arrivalFlow;
            if (flow.bufferedMax != upfront[k].report.arrivals)
                fatal("fig26: upfront buffered max ", flow.bufferedMax,
                      " != whole trace ", upfront[k].report.arrivals,
                      " on ", cells[upfrontIdx[k]].name());
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const auto &flow = streaming[i].report.arrivalFlow;
            if (10 * flow.bufferedMax > streaming[i].report.arrivals)
                fatal("fig26: streaming buffered max ",
                      flow.bufferedMax, " above 10% of the trace (",
                      streaming[i].report.arrivals, " arrivals) on ",
                      cells[i].name());
        }
    }

    // ---- RSS-shape gates -------------------------------------------
    const bool rssAvailable = streaming.front().peakRssMb > 0;
    double streamMin = 0, streamMax = 0;
    if (rssAvailable) {
        for (const Measured &m : streaming) {
            if (m.peakRssMb > ceilingMb)
                fatal("fig26: streaming peak RSS ",
                      TextTable::num(m.peakRssMb, 1),
                      " MB exceeds the ", ceilingMb, " MB ceiling");
        }
        // The flatness claim is about the constant-volume function
        // sweep (cells 0-2 at standard/full scale).
        if (scale != "small") {
            streamMin = streamMax = streaming[0].peakRssMb;
            for (std::size_t i = 1; i < 3; ++i) {
                streamMin = std::min(streamMin, streaming[i].peakRssMb);
                streamMax = std::max(streamMax, streaming[i].peakRssMb);
            }
            if (strict && streamMax > 2.0 * streamMin)
                fatal("fig26: streaming peak RSS not flat across the "
                      "function sweep: ", TextTable::num(streamMin, 1),
                      " .. ", TextTable::num(streamMax, 1), " MB");
            const double upLast = upfront.back().peakRssMb;
            const double streamLast =
                streaming[upfrontIdx.back()].peakRssMb;
            if (strict && upLast < streamLast)
                fatal("fig26: upfront peak RSS ",
                      TextTable::num(upLast, 1),
                      " MB below streaming's ",
                      TextTable::num(streamLast, 1),
                      " MB — the materialized vector should cost "
                      "more, not less");
        }
    } else {
        std::cout << "(/proc unavailable — RSS assertions skipped)\n";
    }

    bench::printPaperMeasured(
        std::cout,
        "n/a (serving-scale extension; the paper's fleet serves "
        "synthetic steady-state) — expect streaming peak RSS flat "
        "across the function sweep, one resident azure minute vs "
        "upfront's whole trace, and bit-identical billing vs "
        "upfront",
        "streaming peak " +
            (rssAvailable
                 ? TextTable::num(streamMax > 0 ? streamMax
                                                : streaming[0].peakRssMb,
                                  1) + " MB"
                 : std::string("n/a")) +
            " across " + std::to_string(cells.size()) +
            " cells (buffered max " +
            std::to_string(
                streaming[upfrontIdx.back()].report.arrivalFlow
                    .bufferedMax) +
            " of " +
            std::to_string(
                streaming[upfrontIdx.back()].report.arrivals) +
            " day-trace arrivals)");

    json.metric("", "cells", static_cast<double>(cells.size()));
    json.metric("", "rss_available", rssAvailable ? 1 : 0);
    json.write();
    return 0;
}
