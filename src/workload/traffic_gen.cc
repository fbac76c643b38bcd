#include "workload/traffic_gen.h"

#include "common/logging.h"
#include "common/units.h"
#include "workload/program.h"

namespace litmus::workload
{

std::string
generatorName(GeneratorKind kind)
{
    return kind == GeneratorKind::CtGen ? "CT-Gen" : "MB-Gen";
}

sim::ResourceDemand
generatorThreadDemand(GeneratorKind kind)
{
    sim::ResourceDemand d;
    if (kind == GeneratorKind::CtGen) {
        // Pointer-chase sized to overflow L2 but sit comfortably in
        // the L3: every access is an L2 miss / L3 hit.
        d.cpi0 = 0.55;
        d.l2Mpki = 60.0;
        d.l3WorkingSet = 640_KiB;
        d.l3MissBase = 0.02;
        d.mlp = 6.0;
    } else {
        // Streaming writes over a buffer far larger than the L3:
        // nearly every L2 miss is an L3 miss; the per-thread footprint
        // also evicts co-runners' blocks.
        d.cpi0 = 0.55;
        d.l2Mpki = 34.0;
        d.l3WorkingSet = 8_MiB;
        d.l3MissBase = 0.92;
        d.mlp = 8.0;
    }
    return d;
}

namespace
{

/** Build one endless generator thread task (unpinned). */
std::unique_ptr<EndlessTask>
makeGeneratorThread(GeneratorKind kind, unsigned index)
{
    const std::string name = (kind == GeneratorKind::CtGen ? "ctgen-"
                                                           : "mbgen-") +
                             std::to_string(index);
    return std::make_unique<EndlessTask>(name,
                                         generatorThreadDemand(kind));
}

} // namespace

std::vector<sim::Task *>
spawnGenerator(sim::Engine &engine, GeneratorKind kind, unsigned level,
               unsigned first_cpu)
{
    const unsigned cpus = engine.scheduler().cpuCount();
    if (first_cpu + level > cpus) {
        fatal("spawnGenerator: level ", level, " starting at cpu ",
              first_cpu, " exceeds machine size ", cpus);
    }
    std::vector<sim::Task *> handles;
    handles.reserve(level);
    for (unsigned i = 0; i < level; ++i) {
        auto thread = makeGeneratorThread(kind, i);
        thread->setAffinity({first_cpu + i});
        handles.push_back(&engine.add(std::move(thread)));
    }
    return handles;
}

} // namespace litmus::workload
