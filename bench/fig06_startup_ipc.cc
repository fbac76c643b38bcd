/**
 * @file
 * Figure 6: IPC of serverless functions during their startup phase,
 * per language, sampled once per millisecond on a solo run.
 *
 * Paper shape: functions of the same language have nearly identical
 * startup IPC timelines; Python ~19 ms, Node.js ~97 ms, Go ~6 ms.
 */

#include <iostream>

#include "bench_util.h"
#include "workload/runtime_startup.h"
#include "sim/machine_catalog.h"

using namespace litmus;

namespace
{

/** Per-ms IPC samples of the startup program of a language. */
std::vector<double>
sampleStartupIpc(workload::Language lang)
{
    const auto cfg = sim::MachineCatalog::get("cascade-5218");
    sim::Engine engine(cfg);
    sim::Task &task = engine.add(std::make_unique<sim::Task>(
        "startup", workload::startupProgram(lang)));

    std::vector<double> ipc;
    sim::TaskCounters prev;
    // The engine holds only this task, so it is live while any is.
    while (engine.taskCount() > 0) {
        engine.run(1e-3);
        if (engine.taskCount() == 0)
            break;
        const sim::TaskCounters now = task.counters();
        const sim::TaskCounters delta = now.since(prev);
        if (delta.cycles > 0)
            ipc.push_back(delta.instructions / delta.cycles);
        prev = now;
        if (ipc.size() > 200)
            break;
    }
    return ipc;
}

} // namespace

int
main()
{
    printBanner(std::cout,
                "Figure 6: startup-phase IPC timelines per language");

    for (workload::Language lang : workload::allLanguages()) {
        const auto ipc = sampleStartupIpc(lang);
        std::cout << "\n" << workload::languageName(lang) << " startup ("
                  << ipc.size() + 1 << " ms):\n  t(ms): IPC  ";
        for (std::size_t i = 0; i < ipc.size(); ++i) {
            if (i % 8 == 0)
                std::cout << "\n  ";
            std::cout << i << ":" << TextTable::num(ipc[i], 2) << "  ";
        }
        std::cout << "\n";
    }

    const auto py = sampleStartupIpc(workload::Language::Python);
    const auto nj = sampleStartupIpc(workload::Language::NodeJs);
    const auto go = sampleStartupIpc(workload::Language::Go);
    std::cout << "\npaper=    durations ~19 ms (py) / ~97 ms (nj) / "
                 "~6 ms (go); IPC fluctuates ~0.5-3.0\n"
              << "measured= durations ~" << py.size() + 1 << " / ~"
              << nj.size() + 1 << " / ~" << go.size() + 1
              << " ms; IPC range "
              << TextTable::num(*std::min_element(py.begin(), py.end()),
                                2)
              << "-"
              << TextTable::num(*std::max_element(py.begin(), py.end()),
                                2)
              << " (python)\n";
    return 0;
}
