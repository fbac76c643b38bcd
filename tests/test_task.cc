/**
 * @file
 * Tests for demand validation, phases and the task's phase walk,
 * including a differential against a frozen copy of the virtual task
 * pair (program task, endless task) the one concrete Task replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/repeated_add.h"
#include "common/rng.h"
#include "workload/function_model.h"
#include "workload/program.h"

namespace litmus::sim
{
namespace
{

TEST(ResourceDemand, ValidDefaults)
{
    ResourceDemand d;
    EXPECT_NO_FATAL_FAILURE(d.validate());
}

TEST(ResourceDemand, RejectsBadCpi)
{
    ResourceDemand d;
    d.cpi0 = 0.0;
    EXPECT_EXIT(d.validate(), ::testing::ExitedWithCode(1), "cpi0");
}

TEST(ResourceDemand, RejectsNegativeMpki)
{
    ResourceDemand d;
    d.l2Mpki = -1.0;
    EXPECT_EXIT(d.validate(), ::testing::ExitedWithCode(1), "l2Mpki");
}

TEST(ResourceDemand, RejectsBadMissBase)
{
    ResourceDemand d;
    d.l3MissBase = 1.5;
    EXPECT_EXIT(d.validate(), ::testing::ExitedWithCode(1),
                "l3MissBase");
}

TEST(ResourceDemand, RejectsBadMlp)
{
    ResourceDemand d;
    d.mlp = 0.5;
    EXPECT_EXIT(d.validate(), ::testing::ExitedWithCode(1), "mlp");
}

Phase
phase(const char *name, double minstr)
{
    Phase p;
    p.name = name;
    p.instructions = minstr * 1e6;
    p.demand.cpi0 = 1.0;
    return p;
}

TEST(Phase, ValidateRejectsEmpty)
{
    Phase p = phase("x", 0);
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "instructions");
}

TEST(Phase, JitterPerturbsWithinBounds)
{
    Rng rng(5);
    const Phase base = phase("x", 100);
    for (int i = 0; i < 100; ++i) {
        const Phase j = workload::jitterPhase(base, rng, 0.02, 0.02);
        EXPECT_GT(j.instructions, base.instructions * 0.9);
        EXPECT_LT(j.instructions, base.instructions * 1.1);
    }
}

TEST(Phase, JitterPreservesOtherFields)
{
    Rng rng(5);
    Phase base = phase("x", 100);
    base.demand.l3WorkingSet = 3_MiB;
    base.demand.mlp = 4.0;
    const Phase j = workload::jitterPhase(base, rng, 0.02, 0.02);
    EXPECT_EQ(j.name, base.name);
    EXPECT_EQ(j.demand.l3WorkingSet, base.demand.l3WorkingSet);
    EXPECT_DOUBLE_EQ(j.demand.mlp, base.demand.mlp);
}

TEST(Phase, TotalInstructions)
{
    EXPECT_DOUBLE_EQ(totalInstructions({phase("a", 10), phase("b", 20)}),
                     30e6);
    EXPECT_DOUBLE_EQ(totalInstructions({}), 0.0);
}

TEST(Task, IdentityAndAffinity)
{
    workload::EndlessTask task("gen", ResourceDemand{});
    EXPECT_EQ(task.name(), "gen");
    EXPECT_TRUE(task.affinity().empty());
    task.setAffinity({3, 4});
    ASSERT_EQ(task.affinity().size(), 2u);
    EXPECT_EQ(task.affinity()[0], 3u);
    task.setId(42);
    EXPECT_EQ(task.id(), 42u);
}

TEST(Task, ProbeWindowDefaultsOff)
{
    workload::EndlessTask task("gen", ResourceDemand{});
    EXPECT_DOUBLE_EQ(task.probeWindow(), Task::noProbe);
    EXPECT_FALSE(task.probe().started);
}

TEST(EndlessTask, NeverFinishes)
{
    workload::EndlessTask task("gen", ResourceDemand{});
    EXPECT_FALSE(task.finished());
    task.retire(1e12);
    EXPECT_FALSE(task.finished());
    EXPECT_TRUE(std::isinf(task.remainingInPhase()));
    ASSERT_EQ(task.phases().size(), 1u);
    EXPECT_EQ(task.phases().front().instructions, endlessPhase);
}

TEST(Task, WalksPhases)
{
    Task task("t", {phase("a", 1), phase("b", 2)});
    EXPECT_EQ(task.phaseIndex(), 0u);
    EXPECT_DOUBLE_EQ(task.remainingInPhase(), 1e6);
    task.retire(0.4e6);
    EXPECT_EQ(task.phaseIndex(), 0u);
    EXPECT_DOUBLE_EQ(task.remainingInPhase(), 0.6e6);
    task.retire(0.6e6);
    EXPECT_EQ(task.phaseIndex(), 1u);
    EXPECT_FALSE(task.finished());
    task.retire(2e6);
    EXPECT_TRUE(task.finished());
}

TEST(Task, RetireAcrossBoundary)
{
    Task task("t", {phase("a", 1), phase("b", 2)});
    // A single retire crossing a phase boundary carries the remainder.
    task.retire(1.5e6);
    EXPECT_EQ(task.phaseIndex(), 1u);
    EXPECT_NEAR(task.remainingInPhase(), 1.5e6, 1.0);
}

TEST(Task, EmptyPhaseListFatal)
{
    EXPECT_EXIT(Task("t", std::vector<Phase>{}),
                ::testing::ExitedWithCode(1), "empty");
}

TEST(Task, DemandAfterFinishPanics)
{
    Task task("t", {phase("a", 1)});
    task.retire(1e6);
    ASSERT_TRUE(task.finished());
    EXPECT_DEATH((void)task.demand(), "completion");
}

TEST(Task, DemandTracksPhase)
{
    Phase a = phase("a", 1);
    a.demand.l2Mpki = 1.0;
    Phase b = phase("b", 1);
    b.demand.l2Mpki = 9.0;
    Task task("t", {a, b});
    EXPECT_DOUBLE_EQ(task.demand().l2Mpki, 1.0);
    task.retire(1e6);
    EXPECT_DOUBLE_EQ(task.demand().l2Mpki, 9.0);
}

// ---- TaskDifferential ---------------------------------------------- //

/**
 * Frozen oracle: the phase-walk arithmetic of the abstract task and
 * its two implementations, as they stood before Task became one
 * concrete class. Kept verbatim apart from the base class (identity,
 * placement and accounting are not part of the walk), the panics on
 * use after completion, and phaseIndex() on the endless task, which
 * is always 0. Do not edit: the concrete Task must match it bit for
 * bit.
 */
namespace frozen
{

constexpr Instructions kPhaseEndSlack = 1e-6;

class OracleTask
{
  public:
    virtual ~OracleTask() = default;
    virtual const ResourceDemand &demand() const = 0;
    virtual Instructions remainingInPhase() const = 0;
    virtual void retire(Instructions n) = 0;
    virtual bool finished() const = 0;
    virtual std::uint64_t steadyRetirements(Instructions /*step*/,
                                            std::uint64_t /*limit*/) const
    {
        return 0;
    }
    virtual void retireRepeated(Instructions step, std::uint64_t k)
    {
        for (; k > 0; --k)
            retire(step);
    }
    virtual std::size_t phaseIndex() const = 0;
};

class ProgramTask : public OracleTask
{
  public:
    explicit ProgramTask(std::vector<Phase> program)
        : program_(std::move(program))
    {
    }

    const ResourceDemand &demand() const override
    {
        return program_[index_].demand;
    }

    Instructions remainingInPhase() const override
    {
        if (finished())
            return 0;
        return program_[index_].instructions - retiredInPhase_;
    }

    void retire(Instructions n) override
    {
        retiredInPhase_ += n;
        while (index_ < program_.size() &&
               retiredInPhase_ >=
                   program_[index_].instructions - kPhaseEndSlack) {
            retiredInPhase_ -= program_[index_].instructions;
            if (retiredInPhase_ < 0)
                retiredInPhase_ = 0;
            ++index_;
        }
    }

    std::uint64_t steadyRetirements(Instructions step,
                                    std::uint64_t limit) const override
    {
        if (finished() || !(step > 0))
            return 0;
        const Instructions phase = program_[index_].instructions;
        const auto fits = [&](std::uint64_t k) {
            const Instructions before =
                addRepeated(retiredInPhase_, step, k - 1);
            return phase - before > step &&
                   !(before + step >= phase - kPhaseEndSlack);
        };
        const double spare = (phase - retiredInPhase_) / step - 3;
        if (!(spare >= 1))
            return 0;
        std::uint64_t k = spare < static_cast<double>(limit)
                              ? static_cast<std::uint64_t>(spare)
                              : limit;
        while (k > 0 && !fits(k))
            k /= 2;
        return k;
    }

    void retireRepeated(Instructions step, std::uint64_t k) override
    {
        retiredInPhase_ = addRepeated(retiredInPhase_, step, k);
    }

    bool finished() const override { return index_ >= program_.size(); }

    std::size_t phaseIndex() const override { return index_; }

  private:
    std::vector<Phase> program_;
    std::size_t index_ = 0;
    Instructions retiredInPhase_ = 0;
};

class EndlessTask : public OracleTask
{
  public:
    explicit EndlessTask(ResourceDemand demand) : demand_(demand) {}

    const ResourceDemand &demand() const override { return demand_; }
    Instructions remainingInPhase() const override { return endlessPhase; }
    void retire(Instructions) override {}
    bool finished() const override { return false; }
    std::uint64_t steadyRetirements(Instructions,
                                    std::uint64_t limit) const override
    {
        return limit;
    }
    void retireRepeated(Instructions, std::uint64_t) override {}
    std::size_t phaseIndex() const override { return 0; }

  private:
    ResourceDemand demand_;
};

} // namespace frozen

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** A phase length: mostly ordinary, sometimes huge, where a step is
 *  only a few ulps of the retired count. */
Instructions
randomLength(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return rng.uniform(1, 100);
      case 1:
        return rng.uniform(1e3, 1e8);
      case 2:
        return std::ldexp(rng.uniform(1, 2),
                          static_cast<int>(rng.range(40, 60)));
      default:
        return static_cast<Instructions>(rng.range(1, 64)) * 1e6;
    }
}

/** A quantum step for a phase with @p remaining of its @p length
 *  left, or a zero or negative one. */
Instructions
randomStep(Rng &rng, Instructions remaining, Instructions length)
{
    if (std::isinf(remaining))
        return rng.chance(0.2) ? -rng.uniform(0, 10) : rng.uniform(0, 1e6);
    switch (rng.below(6)) {
      case 0:
        return rng.chance(0.5) ? 0.0 : -rng.uniform(0, 10);
      case 1: {
        // A step of 1-2.5 ulps of the retired count: each addition
        // rounds, so the headroom estimate is off and the halving
        // loop has to correct it.
        const double retired = std::max(length - remaining, 1.0);
        const double ulp = std::nextafter(retired, HUGE_VAL) - retired;
        return ulp * rng.uniform(1.0, 2.5);
      }
      default:
        return remaining / rng.uniform(1, 2000);
    }
}

/** A retirement: anywhere in the phase, at or just short of its end
 *  (inside and outside the slack), past it, or nothing. */
Instructions
randomRetire(Rng &rng, Instructions remaining)
{
    if (std::isinf(remaining))
        return rng.uniform(0, 1e9);
    switch (rng.below(6)) {
      case 0:
        return remaining;
      case 1:
        return remaining - rng.uniform(0, 2 * frozen::kPhaseEndSlack);
      case 2:
        return remaining * rng.uniform(1, 3);
      case 3:
        return 0;
      default:
        return remaining * rng.uniform(0, 1);
    }
}

/**
 * Drive @p task and @p oracle through the same random retire(),
 * steadyRetirements() and retireRepeated() calls, comparing the walk
 * bit for bit after every one. Counts the batched replays in
 * @p batches.
 */
void
driveTwins(Rng &rng, Task &task, frozen::OracleTask &oracle,
           std::uint64_t &batches)
{
    for (int op = 0; op < 200 && !oracle.finished(); ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        const Instructions remaining = oracle.remainingInPhase();
        if (rng.chance(0.4)) {
            const Instructions n = randomRetire(rng, remaining);
            task.retire(n);
            oracle.retire(n);
        } else {
            const Instructions step = randomStep(
                rng, remaining, task.phases()[task.phaseIndex()].instructions);
            const std::uint64_t limit =
                rng.chance(0.2) ? rng.below(3)
                                : (std::uint64_t{1} << rng.range(4, 50));
            const std::uint64_t want = oracle.steadyRetirements(step, limit);
            ASSERT_EQ(task.steadyRetirements(step, limit), want)
                << "step " << step << " limit " << limit;
            // An endless phase vouches for any step, but the engine
            // never replays a step that is not positive.
            if (want > 0 && step > 0) {
                const std::uint64_t k = 1 + rng.below(want);
                task.retireRepeated(step, k);
                oracle.retireRepeated(step, k);
                ++batches;
            }
        }
        ASSERT_EQ(task.finished(), oracle.finished());
        ASSERT_EQ(task.phaseIndex(), oracle.phaseIndex());
        ASSERT_EQ(bits(task.remainingInPhase()),
                  bits(oracle.remainingInPhase()));
        if (!task.finished()) {
            ASSERT_EQ(bits(task.demand().l2Mpki),
                      bits(oracle.demand().l2Mpki));
        }
    }
}

TEST(TaskDifferential, RandomPhaseListsMatchTheFrozenProgramTask)
{
    Rng rng(1);
    std::uint64_t batches = 0, finished = 0;
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<Phase> phases(1 + rng.below(5));
        for (std::size_t i = 0; i < phases.size(); ++i) {
            phases[i].instructions = randomLength(rng);
            phases[i].demand.l2Mpki = static_cast<double>(i);
        }
        Task task("t", phases);
        frozen::ProgramTask oracle(phases);
        SCOPED_TRACE("trial " + std::to_string(trial));
        driveTwins(rng, task, oracle, batches);
        if (HasFatalFailure())
            return;
        finished += oracle.finished();
    }
    // The drive reaches both ends: batched replays and completions.
    EXPECT_GT(batches, 1000u);
    EXPECT_GT(finished, 100u);
}

TEST(TaskDifferential, EndlessTaskMatchesTheFrozenEndlessTask)
{
    Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        ResourceDemand d;
        d.l2Mpki = rng.uniform(0, 60);
        Task task("gen", d);
        frozen::EndlessTask oracle(d);
        SCOPED_TRACE("trial " + std::to_string(trial));
        std::uint64_t batches = 0;
        driveTwins(rng, task, oracle, batches);
        if (HasFatalFailure())
            return;
    }
}

TEST(TaskDifferential, TrailingEndlessPhaseMatchesTheFrozenProgramTask)
{
    // A finite startup followed by an endless body: the walk matches the
    // old program task, and once in the endless phase every quantum is
    // steady, as it was for the old endless task.
    Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<Phase> phases(1 + rng.below(3));
        for (Phase &p : phases)
            p.instructions = randomLength(rng);
        phases.push_back(Phase{"endless", endlessPhase, {}});
        Task task("t", phases);
        frozen::ProgramTask oracle(phases);
        while (task.phaseIndex() + 1 < phases.size()) {
            const Instructions n = randomRetire(rng, task.remainingInPhase());
            task.retire(n);
            oracle.retire(n);
            ASSERT_EQ(task.phaseIndex(), oracle.phaseIndex());
            ASSERT_EQ(bits(task.remainingInPhase()),
                      bits(oracle.remainingInPhase()));
        }
        const Instructions step = rng.uniform(1, 1e6);
        const std::uint64_t limit = std::uint64_t{1} << rng.range(1, 40);
        EXPECT_EQ(task.steadyRetirements(step, limit), limit);
        EXPECT_EQ(oracle.steadyRetirements(step, limit), limit);
        EXPECT_EQ(task.steadyRetirements(0, limit), limit);
        EXPECT_FALSE(task.finished());
    }
}

} // namespace
} // namespace litmus::sim
