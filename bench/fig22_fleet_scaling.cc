/**
 * @file
 * Figure 22 (extension): fleet scaling of the serving layer.
 *
 * The paper prices invocations on one machine; this bench scales the
 * same open-loop traffic across 1 -> 16 machines under every
 * dispatch policy (cluster::allPolicies()), holding the per-machine
 * arrival rate constant (weak scaling). It reports served throughput, cold-start rate, and
 * the fleet's price-conservation error — fleet billed CPU seconds
 * versus the sum of the per-machine ledgers — and the serving loop's
 * event counters on the 16-machine warmth-aware point. Determinism
 * across thread counts and agreement with the exact-quantum oracle
 * are ctest's job (EventCoreDifferential).
 *
 * Knobs: LITMUS_FLEET_INVOCATIONS (arrivals per machine, default 625
 * so the 16-machine point serves 10000), LITMUS_FLEET_RATE (arrivals
 * per second per machine, default 500).
 */

#include <cmath>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/text_table.h"
#include "core/experiment.h"
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
                "machines x " +
                    std::to_string(cluster::allPolicies().size()) +
                    " dispatch policies");

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
    cluster::SchedulerCounters sched16;
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
                if (policy == cluster::DispatchPolicy::WarmthAware) {
                    coldWarm16 = report.coldStartRate();
                    sched16 = report.sched;
                }
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
    json.metric("sched_event", "events_arrival",
                static_cast<double>(sched16.eventsArrival));
    json.metric("sched_event", "events_retry",
                static_cast<double>(sched16.eventsRetry));
    json.metric("sched_event", "events_fault",
                static_cast<double>(sched16.eventsFault));
    json.metric("sched_event", "events_keepalive",
                static_cast<double>(sched16.eventsKeepAlive));
    json.metric("sched_event", "events_progress",
                static_cast<double>(sched16.eventsProgress));
    json.metric("sched_event", "barriers",
                static_cast<double>(sched16.barriers));
    json.metric("sched_event", "barriers_elided",
                static_cast<double>(sched16.barriersElided));
    json.metric("sched_event", "idle_quanta_skipped",
                static_cast<double>(sched16.idleQuantaSkipped));
    json.write();
    return 0;
}
