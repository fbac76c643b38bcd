/**
 * @file
 * The fleet figures, Figures 22-26 (fleet_figures.cc): paper_figures
 * ids like the paper's own.
 */

#ifndef LITMUS_BENCH_FLEET_FIGURES_H
#define LITMUS_BENCH_FLEET_FIGURES_H

namespace litmus::bench
{

void fig22FleetScaling();
void fig23HeteroFleet();
void fig24ScenarioMix();
void fig25Chaos();
void fig26TraceScale();

} // namespace litmus::bench

#endif // LITMUS_BENCH_FLEET_FIGURES_H
