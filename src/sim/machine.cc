#include "sim/machine.h"

#include "sim/engine.h"

namespace litmus::sim
{

RunResult
runSolo(const MachineConfig &cfg,
        const std::function<std::unique_ptr<Task>()> &make,
        FrequencyPolicy policy)
{
    Engine engine(cfg, policy);
    RunResult result;
    engine.onCompletion([&](Task &task) {
        result.counters = task.counters();
        result.probe = task.probe();
        result.wallTime = task.completionTime() - task.launchTime();
    });
    Task &task = engine.add(make());
    engine.runUntilComplete(task);
    return result;
}

} // namespace litmus::sim
