/**
 * @file
 * Figure 22 (extension): fleet scaling of the serving layer.
 *
 * The paper prices invocations on one machine; this bench scales the
 * same open-loop traffic across 1 -> 16 machines under the three
 * dispatch policies, holding the per-machine arrival rate constant
 * (weak scaling). It reports served throughput, cold-start rate, and
 * the fleet's price-conservation error — fleet billed CPU seconds
 * versus the sum of the per-machine ledgers — and re-runs the largest
 * configuration single-threaded and multi-threaded to prove the
 * threaded runner is deterministic.
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default 625
 * so the 16-machine point serves 10000), LITMUS_FLEET_RATE (arrivals
 * per second per machine, default 500).
 */

#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "scenario/scenario_runner.h"

using namespace litmus;

namespace
{

/** The weak-scaling point as a declarative scenario (the poisson
 *  model reproduces the pre-scenario trace bit-exactly, so migrating
 *  this bench onto the runner moved no numbers). */
scenario::ScenarioSpec
fleetScenario(unsigned machines, cluster::DispatchPolicy policy,
              std::uint64_t per_machine, double rate_per_machine)
{
    scenario::ScenarioSpec spec;
    spec.fleet = {{"cascade-5218", machines}};
    spec.policy = policy;
    spec.traffic.arrivalsPerSecond = rate_per_machine * machines;
    spec.traffic.invocations = per_machine * machines;
    spec.keepAlive = 10.0;
    spec.seed = 7;
    return spec;
}

/** |fleet billed - sum of machine ledgers| / fleet billed. */
double
conservationError(const cluster::FleetReport &report)
{
    // A zeroed fleet accumulator is itself a conservation bug, not a
    // pass — never mask it.
    if (report.billedCpuSeconds <= 0)
        fatal("fig22: fleet billed no CPU time");
    return std::abs(report.billedCpuSeconds -
                    report.sumMachineBilledSeconds()) /
           report.billedCpuSeconds;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 22 (extension): fleet scaling, 1 -> 16 "
                "machines x 3 dispatch policies");

    const std::uint64_t perMachine =
        pricing::envOr("LITMUS_FLEET_INVOCATIONS", 625);
    const double ratePerMachine =
        pricing::envOr("LITMUS_FLEET_RATE", 500);

    TextTable table({"machines", "policy", "invocations", "served/s",
                     "cold %", "mean lat ms", "billed s",
                     "conservation err"});
    double worstConservation = 0;
    double throughput1 = 0, throughput16 = 0;
    double coldRr16 = 0, coldWarm16 = 0;
    for (unsigned machines : {1u, 2u, 4u, 8u, 16u}) {
        for (cluster::DispatchPolicy policy : cluster::allPolicies()) {
            scenario::ScenarioRunner runner(fleetScenario(
                machines, policy, perMachine, ratePerMachine));
            const cluster::FleetReport &report = runner.run();
            const double err = conservationError(report);
            worstConservation = std::max(worstConservation, err);

            if (machines == 1 &&
                policy == cluster::DispatchPolicy::RoundRobin)
                throughput1 = report.throughput();
            if (machines == 16) {
                if (policy == cluster::DispatchPolicy::RoundRobin) {
                    throughput16 = report.throughput();
                    coldRr16 = report.coldStartRate();
                }
                if (policy == cluster::DispatchPolicy::WarmthAware)
                    coldWarm16 = report.coldStartRate();
            }

            table.addRow({std::to_string(machines),
                          policyName(policy),
                          std::to_string(report.dispatched),
                          TextTable::num(report.throughput(), 0),
                          TextTable::num(100 * report.coldStartRate(),
                                         1),
                          TextTable::num(1e3 * report.meanLatency, 1),
                          TextTable::num(report.billedCpuSeconds, 3),
                          TextTable::num(err, 9)});
        }
    }
    table.print(std::cout);

    // Determinism of the threaded runner: the largest configuration,
    // serial vs. multi-threaded, must produce identical fleet totals —
    // and the event core must match the exact-quantum oracle
    // bit-for-bit at both thread counts.
    auto detSpec =
        fleetScenario(16, cluster::DispatchPolicy::WarmthAware,
                      perMachine, ratePerMachine);
    detSpec.threads = 1;
    scenario::ScenarioRunner serial(detSpec);
    const cluster::FleetReport &serialReport = serial.run();
    detSpec.threads = 8;
    scenario::ScenarioRunner threaded(detSpec);
    const cluster::FleetReport &threadedReport = threaded.run();
    const bool deterministic =
        cluster::identicalTotals(serialReport, threadedReport);
    std::cout << "\ndeterminism(16 machines, 1 vs 8 threads): "
              << (deterministic ? "identical totals" : "MISMATCH")
              << "  billed " << TextTable::num(
                     serialReport.billedCpuSeconds, 6)
              << " vs " << TextTable::num(
                     threadedReport.billedCpuSeconds, 6)
              << "\n";

    // The oracle serves the same resolved config at each thread count.
    const auto runExact = [&serial](unsigned threads) {
        cluster::ClusterConfig cfg = serial.clusterConfig();
        cfg.exactQuantum = true;
        cfg.threads = threads;
        cluster::Cluster fleet(cfg);
        return fleet.run();
    };
    const cluster::FleetReport exactSerialReport = runExact(1);
    const cluster::FleetReport exactThreadedReport = runExact(8);
    const bool oracleIdentical =
        cluster::identicalTotals(serialReport, exactSerialReport) &&
        cluster::identicalTotals(threadedReport, exactThreadedReport);
    std::cout << "event core vs exact oracle (16 machines, 1 and 8 "
                 "threads): "
              << (oracleIdentical ? "identical totals" : "MISMATCH")
              << "  barriers " << serialReport.sched.barriers
              << " vs " << exactSerialReport.sched.barriers
              << " (elided " << serialReport.sched.barriersElided
              << ", idle quanta skipped "
              << serialReport.sched.idleQuantaSkipped << ")\n";

    bench::printPaperMeasured(
        std::cout,
        "n/a (fleet extension; single-machine Litmus only) — expect "
        "near-linear weak scaling and warmth-aware < round-robin "
        "cold starts",
        "throughput x" +
            TextTable::num(
                throughput1 > 0 ? throughput16 / throughput1 : 0.0, 2) +
            " from 1 to 16 machines, cold starts " +
            TextTable::num(100 * coldRr16, 1) + "% (round-robin) vs " +
            TextTable::num(100 * coldWarm16, 1) +
            "% (warmth-aware), max price-conservation error " +
            TextTable::num(worstConservation, 9));

    bench::BenchJson json("BENCH_fleet.json");
    json.metric("", "scaling_throughput_x",
                throughput1 > 0 ? throughput16 / throughput1 : 0.0);
    json.metric("", "cold_rate_rr_16", coldRr16);
    json.metric("", "cold_rate_warmth_16", coldWarm16);
    json.metric("", "max_conservation_error", worstConservation);
    json.metric("", "exact_oracle_identical",
                oracleIdentical ? 1.0 : 0.0);
    const cluster::SchedulerCounters &sc = serialReport.sched;
    json.metric("sched_event", "events_arrival",
                static_cast<double>(sc.eventsArrival));
    json.metric("sched_event", "events_retry",
                static_cast<double>(sc.eventsRetry));
    json.metric("sched_event", "events_fault",
                static_cast<double>(sc.eventsFault));
    json.metric("sched_event", "events_keepalive",
                static_cast<double>(sc.eventsKeepAlive));
    json.metric("sched_event", "events_progress",
                static_cast<double>(sc.eventsProgress));
    json.metric("sched_event", "barriers",
                static_cast<double>(sc.barriers));
    json.metric("sched_event", "barriers_elided",
                static_cast<double>(sc.barriersElided));
    json.metric("sched_event", "idle_quanta_skipped",
                static_cast<double>(sc.idleQuantaSkipped));
    json.write();

    if (worstConservation > 1e-6)
        fatal("fig22: fleet billing conservation violated (",
              worstConservation, " relative)");
    if (!deterministic)
        fatal("fig22: threaded fleet runner is not deterministic");
    if (!oracleIdentical)
        fatal("fig22: event core diverged from the exact oracle");
    return 0;
}
