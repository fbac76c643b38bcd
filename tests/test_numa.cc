/**
 * @file
 * Tests for the explicit dual-socket (NUMA) machine model: per-socket
 * shared domains with cross-socket isolation.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "workload/suite.h"
#include "sim/machine_catalog.h"

namespace litmus::sim
{
namespace
{

std::unique_ptr<Task>
hog(const std::string &name)
{
    ResourceDemand d;
    d.cpi0 = 0.6;
    d.l2Mpki = 30.0;
    d.l3WorkingSet = 16_MiB;
    d.l3MissBase = 0.8;
    d.mlp = 8.0;
    return std::make_unique<Task>(name, d);
}

/** Subject CPI with hogs pinned to the given CPUs. */
double
subjectCpiWithHogs(const MachineConfig &cfg,
                   const std::vector<unsigned> &hog_cpus)
{
    Engine engine(cfg);
    for (unsigned cpu : hog_cpus) {
        auto task = hog("hog" + std::to_string(cpu));
        task->setAffinity({cpu});
        engine.add(std::move(task));
    }
    const auto &spec = workload::functionByName("pager-py");
    auto subject = workload::makeNominalInvocation(spec, false);
    auto named = std::make_unique<Task>("subject", subject->phases());
    named->setAffinity({0}); // socket 0, core 0
    const TaskCounters counters =
        engine.runToCompletion(std::move(named))->counters();
    return counters.cycles / counters.instructions;
}

TEST(Numa, PresetGeometry)
{
    const auto cfg = MachineCatalog::get("cascade-5218-dual");
    EXPECT_EQ(cfg.sockets, 2u);
    EXPECT_EQ(cfg.coresPerSocket(), 16u);
    EXPECT_EQ(cfg.hwThreadsPerSocket(), 16u);
    EXPECT_EQ(cfg.socketOf(0), 0u);
    EXPECT_EQ(cfg.socketOf(15), 0u);
    EXPECT_EQ(cfg.socketOf(16), 1u);
    EXPECT_EQ(cfg.socketOf(31), 1u);
    EXPECT_EQ(cfg.l3Capacity, 22_MiB);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Numa, SocketOfWithSmt)
{
    auto cfg = MachineCatalog::get("cascade-5218-dual");
    cfg.smtWays = 2; // 64 hw threads, 32 per socket
    EXPECT_EQ(cfg.hwThreadsPerSocket(), 32u);
    EXPECT_EQ(cfg.socketOf(31), 0u);
    EXPECT_EQ(cfg.socketOf(32), 1u);
}

TEST(Numa, RejectsUnevenSplit)
{
    auto cfg = MachineCatalog::get("cascade-5218");
    cfg.sockets = 3; // 32 % 3 != 0
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "sockets");
}

TEST(Numa, RemoteSocketHogsDoNotInterfere)
{
    // The headline NUMA property: a subject on socket 0 is isolated
    // from hogs on socket 1, but not from hogs on its own socket.
    const auto cfg = MachineCatalog::get("cascade-5218-dual");

    const double alone = subjectCpiWithHogs(cfg, {});
    std::vector<unsigned> remote, local;
    for (unsigned i = 0; i < 8; ++i) {
        remote.push_back(16 + i); // socket 1
        local.push_back(1 + i);   // socket 0
    }
    const double withRemote = subjectCpiWithHogs(cfg, remote);
    const double withLocal = subjectCpiWithHogs(cfg, local);

    EXPECT_NEAR(withRemote, alone, alone * 0.005);
    EXPECT_GT(withLocal, alone * 1.05);
}

TEST(Numa, SingleSocketFoldedEquivalence)
{
    // With sockets=1 the refactored engine must behave exactly like
    // the original single-domain machine.
    const auto cfg = MachineCatalog::get("cascade-5218");
    std::vector<unsigned> local;
    for (unsigned i = 1; i <= 8; ++i)
        local.push_back(i);
    const double a = subjectCpiWithHogs(cfg, local);
    const double b = subjectCpiWithHogs(cfg, local);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, subjectCpiWithHogs(cfg, {}));
}

TEST(Numa, PerSocketCapacityIsSmaller)
{
    // The dual model gives each socket only 22 MiB: a big-footprint
    // subject suffers more from same-socket neighbours than on the
    // folded 44 MiB domain with identical co-location.
    const auto folded = MachineCatalog::get("cascade-5218");
    const auto dual = MachineCatalog::get("cascade-5218-dual");
    std::vector<unsigned> local;
    for (unsigned i = 1; i <= 8; ++i)
        local.push_back(i);
    EXPECT_GT(subjectCpiWithHogs(dual, local),
              subjectCpiWithHogs(folded, local) * 0.999);
}

TEST(Numa, PricingPipelineRunsOnDualSocket)
{
    // End-to-end: calibrate and price entirely on the dual-socket
    // machine (generators behind the subject stay on socket 0, spill
    // to socket 1 at higher levels — both domains exercised).
    pricing::CalibrationConfig ccfg;
    ccfg.machine = MachineCatalog::get("cascade-5218-dual");
    ccfg.levels = {4, 10, 16};
    ccfg.referencePool = {&workload::functionByName("thum-py"),
                          &workload::functionByName("profile-go")};
    ccfg.warmup = 0.03;
    const auto cal = pricing::calibrate(ccfg);
    const pricing::DiscountModel model(cal);

    pricing::ExperimentConfig cfg;
    cfg.machine = ccfg.machine;
    cfg.coRunners = 12;
    cfg.layoutOnePerCore();
    cfg.subjects = {&workload::functionByName("aes-py")};
    cfg.repetitions = 2;
    cfg.warmup = 0.05;
    const auto result = pricing::runPricingExperiment(cfg, model);
    EXPECT_GT(result.litmusDiscount(), 0.0);
    EXPECT_NEAR(result.litmusDiscount(), result.idealDiscount(), 0.05);
}

} // namespace
} // namespace litmus::sim
