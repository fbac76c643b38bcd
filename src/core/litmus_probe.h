/**
 * @file
 * The Litmus test: interpreting a probe capture.
 *
 * Every function invocation carries a probe window over its language
 * startup (Section 6, Step 1). The raw capture — task counters and
 * machine uncore counters at the window edges — is turned into a
 * ProbeReading: per-instruction private/shared time and the machine
 * L3 miss rate, the three observables the pricing model consumes.
 */

#ifndef LITMUS_CORE_LITMUS_PROBE_H
#define LITMUS_CORE_LITMUS_PROBE_H

#include "sim/task.h"

namespace litmus::pricing
{

/** Observables extracted from one Litmus test. */
struct ProbeReading
{
    /** Private-resource cycles per instruction over the window. */
    double privCpi = 0.0;

    /** Shared-domain stall cycles per instruction over the window. */
    double sharedCpi = 0.0;

    /** Instructions the window covered. */
    Instructions instructions = 0;

    /** Machine-wide L3 misses per microsecond during the window. */
    double machineL3MissPerUs = 0.0;

    /** Total cycles per instruction. */
    double totalCpi() const { return privCpi + sharedCpi; }

    /** True when the reading carries data. */
    bool valid() const { return instructions > 0; }
};

/**
 * Slowdown of a probe reading relative to the congestion-free
 * baseline reading of the same language startup.
 */
struct ProbeSlowdown
{
    double priv = 1.0;
    double shared = 1.0;
    double total = 1.0;
};

/**
 * Extract a reading from a completed capture.
 * fatal() if the capture never completed (function shorter than the
 * probe window would be a workload-model bug).
 */
ProbeReading readProbe(const sim::ProbeCapture &capture);

/** Convenience: read the probe off a task. */
ProbeReading readProbe(const sim::Task &task);

/** Component-wise slowdown of @p reading against @p baseline. */
ProbeSlowdown slowdownOf(const ProbeReading &reading,
                         const ProbeReading &baseline);

} // namespace litmus::pricing

#endif // LITMUS_CORE_LITMUS_PROBE_H
