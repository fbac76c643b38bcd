/**
 * @file
 * Outside-in unit costs of each layer.
 *
 * Until the library carries its own profiling, the benchmark estimates
 * where a serve's time goes from outside: it times each layer's public
 * entry point on inputs sized from the workload (its fleet size,
 * dispatch policy, thread count, busy hardware threads and arrival
 * model), then multiplies by the exact counts the serve reported.
 * These are estimates: a primitive timed in a tight loop runs with warm
 * caches and no co-running work.
 */

#ifndef LITMUS_BENCH_UNIT_COSTS_H
#define LITMUS_BENCH_UNIT_COSTS_H

#include <vector>

#include "workloads.h"

namespace litmus::bench
{

/**
 * Nanoseconds per call of every layer's entry point (median of
 * batches), keyed "<layer>.<what>_ns". One span per probe is appended
 * to @p spans, timed from @p origin.
 */
Values measureUnitCosts(const Sizing &sizing, double origin,
                        std::vector<Span> &spans);

} // namespace litmus::bench

#endif // LITMUS_BENCH_UNIT_COSTS_H
