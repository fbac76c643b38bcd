/**
 * @file
 * Tests for the experiment harness on small configurations.
 */

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace litmus::pricing
{
namespace
{

ExperimentConfig
smallConfig()
{
    ExperimentConfig cfg;
    cfg.coRunners = 6;
    cfg.layoutOnePerCore();
    cfg.subjects = {&workload::functionByName("aes-py"),
                    &workload::functionByName("float-py"),
                    &workload::functionByName("pager-py")};
    cfg.repetitions = 2;
    cfg.warmup = 0.05;
    return cfg;
}

TEST(ExperimentConfig, LayoutOnePerCore)
{
    ExperimentConfig cfg;
    cfg.coRunners = 4;
    cfg.layoutOnePerCore();
    EXPECT_EQ(cfg.subjectCpus, std::vector<unsigned>{0});
    EXPECT_EQ(cfg.coRunnerCpus, (std::vector<unsigned>{1, 2, 3, 4}));
    EXPECT_EQ(cfg.placement,
              workload::InvokerConfig::Placement::OnePerCore);
}

TEST(ExperimentConfig, LayoutPooled)
{
    ExperimentConfig cfg;
    cfg.layoutPooled(3);
    EXPECT_EQ(cfg.coRunnerCpus, (std::vector<unsigned>{0, 1, 2}));
    EXPECT_EQ(cfg.subjectCpus, cfg.coRunnerCpus);
    EXPECT_EQ(cfg.placement, workload::InvokerConfig::Placement::Pooled);
}

TEST(ExperimentConfig, ValidateCatchesMissingLayout)
{
    ExperimentConfig cfg;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "layout");
}

TEST(ExperimentConfig, ValidateCatchesBadCpu)
{
    ExperimentConfig cfg;
    cfg.layoutOnePerCore();
    cfg.subjectCpus = {999};
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "out of range");
}

TEST(SlowdownExperiment, ProducesSaneRows)
{
    const auto result = runSlowdownExperiment(smallConfig());
    ASSERT_EQ(result.rows.size(), 3u);
    for (const auto &row : result.rows) {
        EXPECT_GT(row.totalSlowdown, 0.99) << row.name;
        EXPECT_LT(row.totalSlowdown, 2.0) << row.name;
        EXPECT_GE(row.tSharedSlowdown, 0.9) << row.name;
        EXPECT_EQ(row.invocations, 2u);
    }
    // float-py is the least affected subject.
    EXPECT_LT(result.row("float-py").totalSlowdown,
              result.row("pager-py").totalSlowdown);
    EXPECT_GT(result.gmeanTotalSlowdown, 1.0);
}

TEST(SlowdownExperiment, RowLookupFatalOnUnknown)
{
    const auto result = runSlowdownExperiment(smallConfig());
    EXPECT_EXIT(result.row("nope"), ::testing::ExitedWithCode(1),
                "no row");
}

TEST(SlowdownExperiment, SharedShareMatchesBaseline)
{
    const auto result = runSlowdownExperiment(smallConfig());
    EXPECT_LT(result.row("float-py").sharedShareSolo, 0.02);
    EXPECT_GT(result.row("pager-py").sharedShareSolo, 0.08);
}

TEST(SlowdownExperiment, DefaultSubjectsAreTestSet)
{
    ExperimentConfig cfg = smallConfig();
    cfg.subjects.clear();
    cfg.repetitions = 1;
    const auto result = runSlowdownExperiment(cfg);
    EXPECT_EQ(result.rows.size(), workload::testSet().size());
}

} // namespace
} // namespace litmus::pricing
