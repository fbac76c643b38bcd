/**
 * @file
 * Test helper: `poisson` traffic for hand-built ClusterConfigs.
 *
 * ClusterConfig::traffic is required and borrowed, so a helper that
 * returns a config by value needs a model that outlives it. Models are
 * immutable; keeping each one alive for the life of the test binary is
 * the simplest owner.
 */

#ifndef LITMUS_TESTS_POISSON_TRAFFIC_H
#define LITMUS_TESTS_POISSON_TRAFFIC_H

#include <cstdint>
#include <memory>
#include <vector>

#include "scenario/traffic_model.h"

namespace litmus::test
{

/** A `poisson` model at @p rate arrivals/s emitting @p invocations
 *  arrivals, alive until the process exits. */
inline const cluster::TrafficSource *
poissonTraffic(double rate, std::uint64_t invocations)
{
    static std::vector<std::unique_ptr<scenario::TrafficModel>> models;
    scenario::TrafficSpec spec;
    spec.arrivalsPerSecond = rate;
    spec.invocations = invocations;
    models.push_back(scenario::makeTrafficModel(spec));
    return models.back().get();
}

} // namespace litmus::test

#endif // LITMUS_TESTS_POISSON_TRAFFIC_H
