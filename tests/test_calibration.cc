/**
 * @file
 * Tests for the provider calibration procedure (small sweeps so the
 * test stays fast).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "common/epoch_pool.h"
#include "core/calibration.h"
#include "core/table_io.h"
#include "sim/machine_catalog.h"

namespace litmus::pricing
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

CalibrationConfig
smallConfig()
{
    CalibrationConfig cfg;
    cfg.levels = {4, 12, 20};
    // Two reference functions keep the sweep quick.
    cfg.referencePool = {&workload::functionByName("thum-py"),
                         &workload::functionByName("fib-go")};
    cfg.warmup = 0.02;
    return cfg;
}

TEST(Calibration, ValidatesConfig)
{
    CalibrationConfig cfg = smallConfig();
    cfg.levels = {};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "levels");

    cfg = smallConfig();
    cfg.levels = {4, 4};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "increase");

    cfg = smallConfig();
    cfg.levels = {40};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "fit");

    cfg = smallConfig();
    cfg.sharingFunctions = 10;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "sharing");
}

TEST(Calibration, RejectsSubjectCpuInsideGeneratorRange)
{
    // The subject would time-share a CPU with a generator.
    CalibrationConfig cfg = smallConfig();
    cfg.subjectCpu = 1;
    cfg.generatorFirstCpu = 1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "subjectCpu 1 overlaps the generator range");

    cfg.subjectCpu = 20; // last generator CPU of level 20
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "subjectCpu 20 overlaps");

    cfg.subjectCpu = 21; // just behind the deepest level
    cfg.validate();

    cfg = smallConfig();
    cfg.sharingFunctions = 10;
    cfg.sharingCpus = {0, 3};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "sharingCpus entry 3 overlaps");
}

TEST(Calibration, RejectsCpusBeyondTheMachine)
{
    CalibrationConfig cfg = smallConfig();
    const unsigned hw = cfg.machine.hwThreads();
    cfg.subjectCpu = hw;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "subjectCpu " + std::to_string(hw) + " is not a cpu");

    cfg = smallConfig();
    cfg.sharingFunctions = 10;
    cfg.sharingCpus = {0, hw + 5};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "sharingCpus entry " + std::to_string(hw + 5) +
                    " is not a cpu");
}

TEST(Calibration, MeasureSoloBaseline)
{
    const auto machine = sim::MachineCatalog::get("cascade-5218");
    const SoloBaseline solo = measureSoloBaseline(
        machine, workload::functionByName("aes-py"));
    EXPECT_GT(solo.privCpi, 0.3);
    EXPECT_LT(solo.privCpi, 2.0);
    EXPECT_GT(solo.sharedCpi, 0.0);
    EXPECT_LT(solo.sharedCpi, solo.privCpi);
    EXPECT_DOUBLE_EQ(solo.totalCpi(), solo.privCpi + solo.sharedCpi);
}

class CalibrationFixture : public ::testing::Test
{
  protected:
    static const CalibrationProfile &result()
    {
        static const CalibrationProfile r = calibrate(smallConfig());
        return r;
    }
};

TEST_F(CalibrationFixture, BaselinesForAllLanguages)
{
    for (Language lang : workload::allLanguages()) {
        const ProbeReading &base = result().congestion.baseline(lang);
        EXPECT_TRUE(base.valid());
        EXPECT_GT(base.privCpi, 0.0);
        EXPECT_GT(base.sharedCpi, 0.0);
    }
}

TEST_F(CalibrationFixture, TablesPopulatedForBothGenerators)
{
    // One row per configured level, each holding every language.
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        EXPECT_TRUE(result().congestion.populated(gen));
        const auto &rows = result().congestion.rows(gen);
        ASSERT_EQ(rows.size(), smallConfig().levels.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            EXPECT_EQ(rows[i].level, smallConfig().levels[i]);
            EXPECT_EQ(rows[i].startups.size(),
                      workload::allLanguages().size());
        }
    }
}

TEST_F(CalibrationFixture, SlowdownsExceedOneAndGrow)
{
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        const auto &rows = result().congestion.rows(gen);
        const double first =
            rows.front().startup(Language::Python).sharedSlowdown;
        const double last =
            rows.back().startup(Language::Python).sharedSlowdown;
        EXPECT_GT(first, 1.0);
        EXPECT_GT(last, first);
        EXPECT_GE(rows.back().reference.totalSlowdown,
                  rows.front().reference.totalSlowdown);
    }
}

TEST_F(CalibrationFixture, MbStressesSharedTimeMoreThanCt)
{
    // Figure 5 structure: MB-Gen slows T_shared far more than CT-Gen
    // at matched levels.
    const auto &ct = result().congestion.rows(GeneratorKind::CtGen);
    const auto &mb = result().congestion.rows(GeneratorKind::MbGen);
    ASSERT_EQ(ct.size(), mb.size());
    EXPECT_GT(mb.back().startup(Language::Python).sharedSlowdown,
              ct.back().startup(Language::Python).sharedSlowdown);
}

TEST_F(CalibrationFixture, MbProducesFarMoreL3Misses)
{
    const auto &ct = result().congestion.rows(GeneratorKind::CtGen);
    const auto &mb = result().congestion.rows(GeneratorKind::MbGen);
    EXPECT_GT(mb.back().startup(Language::Python).l3MissPerUs,
              5.0 * ct.back().startup(Language::Python).l3MissPerUs);
}

TEST_F(CalibrationFixture, PrivateSlowdownsStaySmall)
{
    // Figure 5: T_private slowdowns are percent-level, not multiples.
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        for (const auto &row : result().congestion.rows(gen)) {
            const double v = row.startup(Language::Python).privSlowdown;
            EXPECT_GT(v, 0.98);
            EXPECT_LT(v, 1.4);
        }
    }
}

TEST_F(CalibrationFixture, ReferenceSoloRecorded)
{
    EXPECT_EQ(result().referenceSolo.size(), 2u);
    EXPECT_TRUE(result().referenceSolo.contains("thum-py"));
}

/** The v2 artifact bytes of a profile. */
std::string
artifact(const CalibrationProfile &profile)
{
    std::ostringstream os;
    saveProfile(os, profile);
    return os.str();
}

/** A short Method-2 sweep: 10 functions churn on CPUs 0-4. */
CalibrationConfig
smallSharingConfig()
{
    CalibrationConfig cfg = smallConfig();
    cfg.levels = {4, 12};
    cfg.sharingFunctions = 10;
    cfg.sharingCpus = {0, 1, 2, 3, 4};
    cfg.generatorFirstCpu = 5;
    return cfg;
}

TEST(Calibration, ThreadCountNeverChangesTheArtifact)
{
    for (const CalibrationConfig &cfg :
         {smallConfig(), smallSharingConfig()}) {
        EpochPool serial(1);
        const std::string expected = artifact(calibrate(cfg, serial));
        EpochPool four(4);
        EXPECT_EQ(artifact(calibrate(cfg, four)), expected)
            << "sharingFunctions=" << cfg.sharingFunctions;
        EXPECT_EQ(artifact(calibrate(cfg)), expected)
            << "sharingFunctions=" << cfg.sharingFunctions;
    }
}

TEST(Calibration, ConcurrentMachineTypesMatchSerial)
{
    // Two machine types calibrated at once, each on its own pool,
    // share only read-only registries (suite, catalog, startups).
    CalibrationConfig cascade = smallConfig();
    CalibrationConfig icelake = smallConfig();
    icelake.machine = sim::MachineCatalog::get("icelake-4314");
    icelake.levels = {4, 12};

    EpochPool serialPool(1);
    const std::string cascadeSerial =
        artifact(calibrate(cascade, serialPool));
    const std::string icelakeSerial =
        artifact(calibrate(icelake, serialPool));

    std::string cascadeParallel, icelakeParallel;
    std::thread first([&] {
        EpochPool pool(2);
        cascadeParallel = artifact(calibrate(cascade, pool));
    });
    std::thread second([&] {
        EpochPool pool(2);
        icelakeParallel = artifact(calibrate(icelake, pool));
    });
    first.join();
    second.join();
    EXPECT_EQ(cascadeParallel, cascadeSerial);
    EXPECT_EQ(icelakeParallel, icelakeSerial);
    EXPECT_NE(cascadeSerial, icelakeSerial);
}

} // namespace
} // namespace litmus::pricing
