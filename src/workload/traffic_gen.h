/**
 * @file
 * CT-Gen and MB-Gen: the calibration traffic generators of Section 3.
 *
 * CT-Gen stresses the path from the cores to the L3: its threads miss
 * the L2 constantly but hit the L3 (small per-thread footprints), so
 * aggregate traffic saturates the L3 access bandwidth without
 * consuming DRAM bandwidth. MB-Gen streams through memory: nearly all
 * of its L2 misses also miss the L3, hammering DRAM bandwidth and
 * evicting co-runners' L3 blocks; its own L2-miss rate is lower than
 * CT-Gen's because it throttles itself on DRAM (Figure 1).
 *
 * Both are multi-threaded; the stress level (1..cores-1) is the number
 * of threads, each pinned to its own core.
 */

#ifndef LITMUS_WORKLOAD_TRAFFIC_GEN_H
#define LITMUS_WORKLOAD_TRAFFIC_GEN_H

#include <string>
#include <vector>

#include "common/name_table.h"
#include "sim/engine.h"

namespace litmus::workload
{

/** The two calibration generators. */
enum class GeneratorKind
{
    CtGen, // core-to-L3 traffic: L2 misses that hit L3
    MbGen, // memory-bandwidth traffic: L3-missing streams
};

/** Display names. */
inline constexpr Spelling<GeneratorKind> kGeneratorNames[] = {
    {GeneratorKind::CtGen, "CT-Gen"},
    {GeneratorKind::MbGen, "MB-Gen"},
};

/** Demand of a single generator thread. */
sim::ResourceDemand generatorThreadDemand(GeneratorKind kind);

/**
 * Spawn @p level generator threads into the engine, pinned one per
 * CPU starting from @p first_cpu. Returns non-owning handles (the
 * engine owns the tasks; generator threads never finish on their own).
 */
std::vector<sim::Task *> spawnGenerator(sim::Engine &engine,
                                        GeneratorKind kind,
                                        unsigned level,
                                        unsigned first_cpu);

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_TRAFFIC_GEN_H
