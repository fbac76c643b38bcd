/**
 * @file
 * The Table 1 benchmark suite: 27 serverless functions from SeBS,
 * FunctionBench, DeathStarBench Hotel Reservation, Online Boutique,
 * and the AWS authorizer samples, in Python / Node.js / Go.
 *
 * Thirteen functions (the paper's asterisks) form the provider's
 * reference set used to build performance tables; fourteen form the
 * evaluation test set shown on the x-axis of Figures 11-21.
 *
 * Demand parameters are calibrated so the suite reproduces the
 * paper's observable distributions: compute-bound members (float-py)
 * spend >99.9% of their time on private resources, graph workloads
 * (pager/mst/bfs) leanheavily on the shared domain, and the suite
 * gmean slowdown with 26 co-runners lands near the paper's 11.5%.
 */

#ifndef LITMUS_WORKLOAD_SUITE_H
#define LITMUS_WORKLOAD_SUITE_H

#include <string_view>
#include <vector>

#include "workload/function_model.h"

namespace litmus::workload
{

/** All 27 functions of Table 1, in the paper's listing order. */
const std::vector<FunctionSpec> &table1Suite();

/** The 13 reference functions (Table 1 asterisks). */
std::vector<const FunctionSpec *> referenceSet();

/** The 14 test functions shown in Figures 11-13 and 15-21. */
std::vector<const FunctionSpec *> testSet();

/**
 * The eight memory-intensive functions Section 8 uses to create heavy
 * congestion (Figure 17).
 */
std::vector<const FunctionSpec *> memoryIntensiveSet();

/** Lookup by name; fatal() if absent. */
const FunctionSpec &functionByName(const std::string &name);

/** Non-fatal lookup: nullptr when no suite member has this name
 *  (heuristic mappers — e.g. the azure trace ingester — probe names
 *  that usually aren't suite functions). */
const FunctionSpec *findFunction(std::string_view name);

/** Pointers to every suite member (co-runner sampling pool). */
std::vector<const FunctionSpec *> allFunctions();

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_SUITE_H
