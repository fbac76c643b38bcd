/**
 * @file
 * Test helper: one fleet run's observable outcome, and the bit-exact
 * comparison of two of them.
 *
 * Every equality the fleet promises across runs — any worker-thread
 * count, the exact-quantum oracle (ClusterConfig::exactQuantum),
 * streaming or upfront arrival delivery — is checked by serving each
 * side through serveFleet() and comparing with expectIdentical(). Each
 * test file builds its configs its own way; identities a single run
 * can check live in cluster::checkConservation(), which Cluster::run()
 * applies to every report.
 */

#ifndef LITMUS_TESTS_FLEET_RUN_H
#define LITMUS_TESTS_FLEET_RUN_H

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"

namespace litmus::test
{

/** One run's complete observable outcome. */
struct RunOutcome
{
    cluster::FleetReport report;
    /** Per-machine ledger records (copied out of the cluster). */
    std::vector<std::vector<pricing::BillRecord>> ledgers;
    /** Per-machine engine quanta: stepped, and idle-elided. */
    std::vector<double> stepped;
    std::vector<double> skipped;
};

/** Serve @p cfg to completion and capture its outcome. */
inline RunOutcome
serveFleet(const cluster::ClusterConfig &cfg)
{
    cluster::Cluster fleet(cfg);
    RunOutcome out;
    out.report = fleet.run();
    for (unsigned m = 0; m < out.report.machines.size(); ++m) {
        out.ledgers.push_back(fleet.ledger(m).records());
        const sim::EngineStats &st = fleet.engine(m).stats();
        out.stepped.push_back(st.quanta.value());
        out.skipped.push_back(st.skippedQuanta.value());
    }
    return out;
}

/**
 * Bit-exact comparison of everything a run reports: the fleet totals,
 * every machine row, every type row and every ledger record. Three
 * things are deliberately left out, because equivalent runs differ in
 * them by design: the SchedulerCounters (the oracle takes every
 * barrier), the arrival-flow counters (upfront delivery buffers the
 * whole trace) and the stepped/skipped quanta split (the oracle steps
 * every quantum; the rows' covered quanta are compared).
 */
inline void
expectIdentical(const RunOutcome &a, const RunOutcome &b)
{
    const cluster::FleetReport &x = a.report;
    const cluster::FleetReport &y = b.report;
    EXPECT_EQ(x.arrivals, y.arrivals);
    EXPECT_EQ(x.dispatched, y.dispatched);
    EXPECT_EQ(x.rejectedMemory, y.rejectedMemory);
    EXPECT_EQ(x.completions, y.completions);
    EXPECT_EQ(x.coldStarts, y.coldStarts);
    EXPECT_EQ(x.warmStarts, y.warmStarts);
    EXPECT_EQ(x.billedCpuSeconds, y.billedCpuSeconds);
    EXPECT_EQ(x.commercialUsd, y.commercialUsd);
    EXPECT_EQ(x.litmusUsd, y.litmusUsd);
    EXPECT_EQ(x.meanLatency, y.meanLatency);
    EXPECT_EQ(x.makespan, y.makespan);
    EXPECT_EQ(x.crashes, y.crashes);
    EXPECT_EQ(x.killedInvocations, y.killedInvocations);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.abandoned, y.abandoned);
    EXPECT_EQ(x.lostCpuSeconds, y.lostCpuSeconds);
    EXPECT_EQ(x.absorbedCpuSeconds, y.absorbedCpuSeconds);
    EXPECT_EQ(x.absorbedUsd, y.absorbedUsd);
    EXPECT_TRUE(cluster::identicalTotals(x, y));

    ASSERT_EQ(x.machines.size(), y.machines.size());
    for (std::size_t i = 0; i < x.machines.size(); ++i) {
        const cluster::MachineReport &m = x.machines[i];
        const cluster::MachineReport &n = y.machines[i];
        EXPECT_EQ(m.type, n.type) << "machine " << i;
        EXPECT_EQ(m.dispatched, n.dispatched) << "machine " << i;
        EXPECT_EQ(m.coldStarts, n.coldStarts) << "machine " << i;
        EXPECT_EQ(m.warmStarts, n.warmStarts) << "machine " << i;
        EXPECT_EQ(m.completions, n.completions) << "machine " << i;
        EXPECT_EQ(m.billedCpuSeconds, n.billedCpuSeconds)
            << "machine " << i;
        EXPECT_EQ(m.commercialUsd, n.commercialUsd) << "machine " << i;
        EXPECT_EQ(m.litmusUsd, n.litmusUsd) << "machine " << i;
        EXPECT_EQ(m.meanLatency, n.meanLatency) << "machine " << i;
        EXPECT_EQ(m.quanta, n.quanta) << "machine " << i;
        EXPECT_EQ(m.crashes, n.crashes) << "machine " << i;
        EXPECT_EQ(m.killedInvocations, n.killedInvocations)
            << "machine " << i;
        EXPECT_EQ(m.lostCpuSeconds, n.lostCpuSeconds) << "machine " << i;
        EXPECT_EQ(m.absorbedCpuSeconds, n.absorbedCpuSeconds)
            << "machine " << i;
        EXPECT_EQ(m.absorbedUsd, n.absorbedUsd) << "machine " << i;
    }

    ASSERT_EQ(x.types.size(), y.types.size());
    for (std::size_t i = 0; i < x.types.size(); ++i) {
        const cluster::TypeReport &t = x.types[i];
        const cluster::TypeReport &u = y.types[i];
        EXPECT_EQ(t.type, u.type);
        EXPECT_EQ(t.machines, u.machines) << t.type;
        EXPECT_EQ(t.dispatched, u.dispatched) << t.type;
        EXPECT_EQ(t.coldStarts, u.coldStarts) << t.type;
        EXPECT_EQ(t.warmStarts, u.warmStarts) << t.type;
        EXPECT_EQ(t.billedCpuSeconds, u.billedCpuSeconds) << t.type;
        EXPECT_EQ(t.commercialUsd, u.commercialUsd) << t.type;
        EXPECT_EQ(t.litmusUsd, u.litmusUsd) << t.type;
    }

    ASSERT_EQ(a.ledgers.size(), b.ledgers.size());
    for (std::size_t m = 0; m < a.ledgers.size(); ++m) {
        ASSERT_EQ(a.ledgers[m].size(), b.ledgers[m].size())
            << "ledger " << m;
        for (std::size_t r = 0; r < a.ledgers[m].size(); ++r) {
            const pricing::BillRecord &p = a.ledgers[m][r];
            const pricing::BillRecord &q = b.ledgers[m][r];
            EXPECT_EQ(p.function, q.function)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.tenant, q.tenant)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.cpuSeconds, q.cpuSeconds)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.commercialUsd, q.commercialUsd)
                << "ledger " << m << " record " << r;
            EXPECT_EQ(p.litmusUsd, q.litmusUsd)
                << "ledger " << m << " record " << r;
        }
    }
}

} // namespace litmus::test

#endif // LITMUS_TESTS_FLEET_RUN_H
