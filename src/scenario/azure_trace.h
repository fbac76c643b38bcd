/**
 * @file
 * Azure Functions dataset-shape trace ingestion (traffic model
 * `azure`) and a synthetic generator for dataset-shaped CSVs.
 *
 * The public Azure Functions invocation dataset ships per-function
 * rows of minute-bucket invocation counts:
 *
 *     HashOwner,HashApp,HashFunction,Trigger,1,2,...,1440
 *     a13f...,9bd0...,c4a1...,http,0,3,0,...,12
 *
 * — four identity columns, then one count column per minute of the
 * day. This is the production-shaped workload the ROADMAP's
 * millions-of-functions goal needs, and exactly the shape a
 * materialized arrival vector cannot hold: a day of fleet-rate
 * traffic over 10^5-10^6 functions.
 *
 * The ingester turns that shape into an ArrivalStream:
 *
 *  - **One pass per row.** Each line (read through LineReader, so
 *    `#` comments, blank lines and CRLF follow the shared input rules)
 *    is walked once, left to right, with no per-row field vector: the
 *    four identity fields, then each count cell in place. A count cell
 *    is decimal digits, with optional spaces or tabs around them, and
 *    at most 2^64 - 1; no sign, no hex, never empty. Anything else
 *    fails with `file:line: bad invocation count '...' in minute M`,
 *    unless the row is also of the wrong width (not as many count
 *    columns as the first line): that fails first.
 *  - **Caps during parse.** Rows past `azure.max_rows` are never
 *    read; the resident index holds only the nonzero minute buckets
 *    of the kept rows — O(nonzero buckets), which under the
 *    dataset's heavy-tailed per-function popularity is far below
 *    O(total arrivals) (hot functions collapse thousands of arrivals
 *    into at most one bucket per minute).
 *  - **Deterministic bucket sampling.** A bucket of count c becomes c
 *    arrival timestamps uniform in its minute, drawn from a
 *    per-(stream, row, minute) SplitMix64-derived Rng (the FaultPlan
 *    seeding scheme), then merged in timestamp order across rows —
 *    so the arrival sequence is a pure function of the scenario seed,
 *    independent of pull order and thread count, and identical
 *    between streaming and upfront consumption. The stream buffers
 *    one minute of arrivals at a time.
 *  - **Function→suite mapping heuristics.** A HashFunction field that
 *    names a Table 1 suite member maps to it directly (curated traces
 *    can pin functions); anything else maps by FNV-1a hash of the
 *    (owner, app, function) identity onto the scenario's function
 *    pool — stable across runs, spread across the pool.
 *  - `azure.rate_scale` rescales timestamps exactly like
 *    `trace.rate_scale`; `invocations`/`duration` cap the emitted
 *    arrivals like every generative model.
 *
 * writeAzureShapedCsv() synthesizes dataset-shaped files (Zipf
 * function popularity, sinusoidal diurnal minute profile) so tests
 * and benches exercise 10^5-10^6-function traces without the real
 * download; tools/azure_trace_gen is its CLI.
 */

#ifndef LITMUS_SCENARIO_AZURE_TRACE_H
#define LITMUS_SCENARIO_AZURE_TRACE_H

#include <cstdint>
#include <memory>
#include <string>

#include "scenario/traffic_model.h"

namespace litmus::scenario
{

/**
 * Build the `azure` traffic model from @p spec (azurePath,
 * azureMaxRows, azureRateScale + the shared invocations/duration
 * caps). Parses and validates the file at construction — stopping at
 * the row cap — so malformed traces fail at scenario build time.
 * Registered in the traffic-model registry as "azure".
 */
std::unique_ptr<TrafficModel> makeAzureTraceModel(const TrafficSpec &spec);

/** Knobs for the synthetic dataset-shape generator. */
struct AzureTraceGenSpec
{
    /** Function rows to synthesize. */
    std::uint64_t functions = 1000;

    /** Minute columns (60 = one hour, 1440 = the dataset's day). */
    unsigned minutes = 60;

    /** Target fleet-wide mean invocations per minute, spread over
     *  the functions by a Zipf popularity law and over the minutes
     *  by a sinusoidal diurnal profile. */
    double invocationsPerMinute = 2000.0;

    /** Zipf popularity exponent (higher = heavier head). */
    double zipfExponent = 1.1;

    /** Fraction of rows whose HashFunction field names a real suite
     *  function (exercises the suite-mapping heuristic); the rest
     *  get opaque hex identities. */
    double suiteNamedFraction = 0.25;

    /** Diurnal swing of the minute profile in [0, 1]. */
    double diurnalAmplitude = 0.6;

    /** Generator seed (counts are a pure function of spec+seed). */
    std::uint64_t seed = 1;
};

/**
 * Write a dataset-shaped CSV to @p path, streaming row by row (O(1)
 * memory at any function count). Returns the total invocation count
 * written. fatal() on unwritable paths or zero functions/minutes.
 */
std::uint64_t writeAzureShapedCsv(const std::string &path,
                                  const AzureTraceGenSpec &spec);

} // namespace litmus::scenario

#endif // LITMUS_SCENARIO_AZURE_TRACE_H
