/**
 * @file
 * Fleet traffic models: the five built-in arrival processes.
 *
 * The Litmus fairness claims are only as convincing as the workloads
 * billed under, so the scenario layer turns "how do invocations
 * arrive" into an interface with these built-ins:
 *
 *  - poisson  the classic open-loop memoryless stream;
 *  - diurnal  a sinusoid-modulated rate (day/night load swing),
 *             sampled by Lewis-Shedler thinning against the peak
 *             rate;
 *  - burst    a two-state Markov-modulated process (MMPP-style
 *             on/off): exponential on/off holding times, full burst
 *             rate while on, an optional idle trickle while off, with
 *             the rates solved so the long-run mean matches the
 *             configured arrival rate;
 *  - trace    replay of arrival timestamps (+ optional function
 *             names) from a CSV file, with a rate-rescale knob;
 *  - azure    ingestion of the public Azure Functions dataset shape
 *             (per-function minute-bucket invocation counts — see
 *             scenario/azure_trace.h), sampled into deterministic
 *             timestamps one minute at a time.
 *
 * Scenario files name one of these five; the set is fixed. Every model
 * is a native stream: open() yields arrivals one at a time from a
 * single fork() of the run's arrival Rng, so memory stays O(model
 * lookahead) for day-long million-function workloads, and a fixed
 * seed gives the same arrivals at any thread count whether the stream
 * is pulled lazily or drained upfront through generate() — the fleet
 * determinism guarantee does not depend on which model produced the
 * traffic, nor on how it was consumed.
 */

#ifndef LITMUS_SCENARIO_TRAFFIC_MODEL_H
#define LITMUS_SCENARIO_TRAFFIC_MODEL_H

#include <memory>
#include <string>

#include "cluster/traffic_source.h"
#include "common/rng.h"

namespace litmus::scenario
{

/**
 * Declarative description of one traffic source. The scenario-file
 * keys map one-to-one (traffic=, rate=, invocations=, duration=,
 * diurnal.*, burst.*, trace.*).
 */
struct TrafficSpec
{
    /** Model name: azure, burst, diurnal, poisson or trace. */
    std::string model = "poisson";

    /** Long-run mean arrival rate (invocations per second). Ignored
     *  by `trace`, whose timestamps carry their own rate. */
    double arrivalsPerSecond = 2000.0;

    /** Arrivals to generate (0 = run until `duration`). For `trace`:
     *  a cap on replayed rows (0 = the whole file). */
    std::uint64_t invocations = 10000;

    /** Stop generating at this simulated time (0 = run until
     *  `invocations`). When both are set, whichever limit is hit
     *  first wins; at least one must be set. */
    Seconds duration = 0;

    /** @name diurnal: rate(t) = rate * (1 + A sin(2pi(t/P + phi))) @{ */
    /** P: period of one load cycle in simulated seconds. */
    Seconds diurnalPeriod = 60.0;
    /** A: relative swing in [0, 1]; 1 idles the troughs completely. */
    double diurnalAmplitude = 0.8;
    /** phi: phase offset as a fraction of a period in [0, 1). */
    double diurnalPhase = 0.0;
    /** @} */

    /** @name burst: two-state on/off MMPP @{ */
    /** Mean burst (on-state) duration in seconds. */
    Seconds burstOn = 0.5;
    /** Mean gap (off-state) duration in seconds. */
    Seconds burstOff = 2.0;
    /** Off-state trickle as a fraction of the mean rate, in [0, 1].
     *  The on-state rate is solved so the long-run mean stays at
     *  arrivalsPerSecond. */
    double burstIdleFraction = 0.0;
    /** @} */

    /** @name trace: CSV replay @{ */
    /** CSV of `arrival_seconds,function` rows ('#' comments and an
     *  optional header line allowed; an empty function field samples
     *  the scenario's pool instead). */
    std::string tracePath;
    /** Rate rescale: 2.0 replays the trace twice as fast (timestamps
     *  halved), 0.5 at half speed. */
    double traceRateScale = 1.0;
    /** @} */

    /** @name azure: Azure Functions dataset-shape ingestion @{ */
    /** CSV in the Azure Functions dataset shape: identity columns
     *  (owner/app/function hashes, trigger) then one invocation-count
     *  column per minute of the day (see scenario/azure_trace.h). */
    std::string azurePath;
    /** Cap on ingested function rows (0 = every row). Enforced
     *  during the parse — rows past the cap are never read. */
    std::uint64_t azureMaxRows = 0;
    /** Rate rescale, as trace.rate_scale: 2.0 squeezes the trace into
     *  half the simulated time. */
    double azureRateScale = 1.0;
    /** @} */

    /** fatal() on out-of-range parameters. */
    void validate() const;
};

/**
 * One arrival process, by its model name ("poisson", "diurnal",
 * ...). The contract — open() streams nondecreasing non-null
 * arrivals, generate() drains the same stream, identical output for
 * equal-seeded generators — is cluster::TrafficSource's; the scenario
 * layer adds only the named built-ins. The interface lives in the
 * cluster layer so the cluster can consume models without an upward
 * include.
 */
class TrafficModel : public cluster::TrafficSource
{
};

/** Build the built-in model @p spec names; fatal() with the known
 *  names on any other name. */
std::unique_ptr<TrafficModel> makeTrafficModel(const TrafficSpec &spec);

/**
 * One parsed trace-replay row. A null spec means "sample the pool at
 * replay".
 */
struct TraceRow
{
    Seconds arrival = 0;
    const workload::FunctionSpec *spec = nullptr;
};

/**
 * Incremental `arrival_seconds,function` CSV reader: one validated
 * row per next() call, O(1) memory regardless of file size — the
 * `trace` model's backing reader (its build-time validation prescan
 * and each opened stream run one of these), also exposed for tests
 * and tools. fatal()s with file:line on unreadable files, malformed
 * or non-finite timestamps, unknown function names, and out-of-order
 * rows; '#' comments and one leading non-numeric header row are
 * tolerated.
 */
class TraceCsvReader
{
  public:
    explicit TraceCsvReader(std::string path);
    TraceCsvReader(const TraceCsvReader &) = delete;
    TraceCsvReader &operator=(const TraceCsvReader &) = delete;
    ~TraceCsvReader();

    /** Parse the next data row into @p row; false at end of file. */
    bool next(TraceRow &row);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace litmus::scenario

#endif // LITMUS_SCENARIO_TRAFFIC_MODEL_H
