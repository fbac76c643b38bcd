#include "unit_costs.h"

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>

#include "cluster/epoch_pool.h"
#include "cluster/traffic_source.h"
#include "core/profile_store.h"
#include "sim/engine.h"
#include "sim/machine_catalog.h"
#include "summary.h"
#include "workload/program.h"

namespace litmus::bench
{

namespace
{

constexpr const char *kMachine = "cascade-5218";

/** Keeps timed results observable so no call is optimized away. */
volatile double sink = 0;

/** Batches grow until one takes this long, then kSamples are timed. */
constexpr double kBatchSeconds = 2e-3;
constexpr int kSamples = 7;

/** Median nanoseconds per operation of @p batch(n), which performs
 *  n operations. */
template <typename Batch>
double
nsPerOp(Batch &&batch)
{
    std::uint64_t n = 1;
    for (;;) {
        const double begin = wallSeconds();
        batch(n);
        if (wallSeconds() - begin >= kBatchSeconds || n >= (1ull << 30))
            break;
        n *= 2;
    }
    std::vector<double> samples;
    for (int i = 0; i < kSamples; ++i) {
        const double begin = wallSeconds();
        batch(n);
        samples.push_back((wallSeconds() - begin) * 1e9 /
                          static_cast<double>(n));
    }
    return Summary::of(std::move(samples)).median;
}

/** @p count distinct steady demands, the shape of long Table 1 phases. */
std::vector<sim::ResourceDemand>
steadyDemands(unsigned count)
{
    std::vector<sim::ResourceDemand> demands;
    for (unsigned i = 0; i < count; ++i) {
        sim::ResourceDemand d;
        d.cpi0 = 0.5 + 0.05 * (i % 8);
        d.l2Mpki = static_cast<double>(i % 16);
        d.l3WorkingSet = (1 + i % 4) * 1_MiB;
        d.l3MissBase = 0.1 + 0.02 * (i % 5);
        d.mlp = 4.0;
        demands.push_back(d);
    }
    return demands;
}

/** ns per quantum of an engine keeping @p busy threads running. */
double
engineQuantumNs(unsigned busy, bool fast_forward)
{
    sim::Engine engine(sim::MachineCatalog::get(kMachine));
    engine.setFastForward(fast_forward);
    unsigned i = 0;
    for (const sim::ResourceDemand &d : steadyDemands(busy)) {
        engine.add(std::make_unique<workload::EndlessTask>(
            "probe" + std::to_string(i++), d));
    }
    engine.runQuanta(16); // build the replay plan before timing
    return nsPerOp([&](std::uint64_t n) { engine.runQuanta(n); });
}

/** ns per ArrivalStream::next(), over fresh streams of the model. */
double
pullNs(const Sizing &s)
{
    const auto model = scenario::makeTrafficModel(s.traffic);
    std::vector<double> samples;
    for (int i = 0; i < kSamples; ++i) {
        Rng rng(cluster::deriveArrivalSeed(s.seed));
        const auto stream = model->open(rng, s.pool);
        cluster::Invocation inv;
        std::uint64_t pulled = 0;
        const double begin = wallSeconds();
        while (pulled < 200000 && stream->next(inv))
            ++pulled;
        const double seconds = wallSeconds() - begin;
        sink = sink + inv.arrival;
        if (pulled > 0)
            samples.push_back(seconds * 1e9 / static_cast<double>(pulled));
    }
    return Summary::of(std::move(samples)).median;
}

double
pickNs(const Sizing &s)
{
    const sim::MachineConfig machine = sim::MachineCatalog::get(kMachine);
    // A cold fleet: warmth-aware scans every machine, then falls back
    // to least-loaded, as it does for a first-seen function.
    // The dispatcher API's warm-pool type; empty, never iterated.
    const std::unordered_map<std::string, std::deque<Seconds>> noWarm;
    std::vector<cluster::MachineSnapshot> snapshots(s.machines);
    for (unsigned i = 0; i < s.machines; ++i) {
        cluster::MachineSnapshot &m = snapshots[i];
        m.index = i;
        m.type = kMachine;
        m.cores = machine.cores;
        m.baseFrequency = machine.baseFrequency;
        m.liveTasks = (i * 7) % 5;
        m.memoryCapacity = machine.memoryCapacity;
        m.warmIdle = &noWarm;
    }
    const auto dispatcher = cluster::makeDispatcher(s.policy);
    cluster::Invocation inv;
    inv.spec = s.pool.front();
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            sink = sink + dispatcher->pick(inv, snapshots);
    });
}

/** ns per EpochPool::run at the counted serve's thread count (one
 *  thread runs the jobs inline, as a serial serve does). */
double
barrierNs(const Sizing &s)
{
    cluster::EpochPool pool(s.threads);
    const std::vector<std::function<void()>> jobs(s.threads, [] {});
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            pool.run(jobs);
    });
}

double
estimateNs(const Sizing &s)
{
    std::unique_ptr<pricing::DiscountModel> fitted;
    const pricing::DiscountModel *model = s.model;
    if (!model) {
        fitted = std::make_unique<pricing::DiscountModel>(
            *pricing::ProfileStore::instance().dedicated(kMachine));
        model = fitted.get();
    }
    // A congested reading: private and shared CPI above the baseline.
    pricing::ProbeReading reading =
        model->baseline(workload::Language::Python);
    reading.privCpi *= 1.1;
    reading.sharedCpi *= 1.5;
    reading.machineL3MissPerUs = 2 * reading.machineL3MissPerUs + 1;
    return nsPerOp([&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i)
            sink = sink +
                   model->estimate(reading, workload::Language::Python)
                       .rShared;
    });
}

} // namespace

Values
measureUnitCosts(const Sizing &sizing, double origin,
                 std::vector<Span> &spans)
{
    const sim::MachineConfig machine = sim::MachineCatalog::get(kMachine);
    const sim::ContentionSolver solver(machine);
    std::vector<sim::SolverInput> inputs;
    for (const sim::ResourceDemand &d :
         steadyDemands(sizing.runningThreads))
        inputs.push_back({d, {}});
    sim::ContentionMemo memo;

    const std::vector<std::pair<std::string, std::function<double()>>>
        probes = {
            {"traffic.pull_ns", [&] { return pullNs(sizing); }},
            {"cluster.dispatch.pick_ns", [&] { return pickNs(sizing); }},
            {"cluster.epoch_pool.barrier_ns",
             [&] { return barrierNs(sizing); }},
            {"sim.engine.replay_ns",
             [&] { return engineQuantumNs(sizing.runningThreads, true); }},
            {"sim.engine.full_step_ns",
             [&] {
                 return engineQuantumNs(sizing.runningThreads, false);
             }},
            {"sim.contention.solve_ns",
             [&] {
                 return nsPerOp([&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i)
                         sink = sink +
                                solver
                                    .solve(inputs, machine.baseFrequency)
                                    .shared.l3LatencyNs;
                 });
             }},
            {"sim.contention.memo_hit_ns",
             [&] {
                 return nsPerOp([&](std::uint64_t n) {
                     for (std::uint64_t i = 0; i < n; ++i)
                         sink = sink + memo.solve(solver, inputs,
                                                  machine.baseFrequency,
                                                  0.0)
                                           .shared.l3LatencyNs;
                 });
             }},
            {"core.discount.estimate_ns",
             [&] { return estimateNs(sizing); }},
        };

    Values costs;
    for (const auto &[name, probe] : probes) {
        const double begin = wallSeconds();
        costs.emplace_back(name, probe());
        spans.push_back({"probe." + name, begin - origin,
                         wallSeconds() - begin});
    }
    return costs;
}

} // namespace litmus::bench
