/**
 * @file
 * Machine facade: convenience entry point for the most common
 * experiment motion — running one task alone on an otherwise idle
 * machine (the paper's T_solo baselines that every normalized figure
 * divides by).
 *
 * Runs amid co-runners are orchestrated by the experiment harness in
 * the pricing library, which owns the engine's completion callback.
 */

#ifndef LITMUS_SIM_MACHINE_H
#define LITMUS_SIM_MACHINE_H

#include <functional>
#include <memory>

#include "sim/frequency_governor.h"
#include "sim/machine_config.h"
#include "sim/task.h"

namespace litmus::sim
{

/** Result of running a task to completion. */
struct RunResult
{
    TaskCounters counters;
    ProbeCapture probe;
    Seconds wallTime = 0;
};

/**
 * Run a freshly built task alone on an idle machine and return its
 * counters.
 *
 * @param cfg machine to simulate
 * @param make factory producing the task (called exactly once)
 * @param policy frequency policy for the baseline run
 */
RunResult runSolo(const MachineConfig &cfg,
                  const std::function<std::unique_ptr<Task>()> &make,
                  FrequencyPolicy policy = FrequencyPolicy::Fixed);

} // namespace litmus::sim

#endif // LITMUS_SIM_MACHINE_H
