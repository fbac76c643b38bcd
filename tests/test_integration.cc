/**
 * @file
 * Integration tests: the full Litmus pipeline — calibrate, fit the
 * discount model, and price functions inside a churning population —
 * on a reduced configuration so the suite stays fast.
 */

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/experiment.h"

namespace litmus::pricing
{
namespace
{

/** Shared one-time pipeline state (calibration is the slow part). */
class Pipeline : public ::testing::Test
{
  protected:
    static const DiscountModel &model()
    {
        static const DiscountModel m = [] {
            CalibrationConfig cfg;
            cfg.levels = {4, 10, 16, 22};
            cfg.referencePool = {
                &workload::functionByName("thum-py"),
                &workload::functionByName("bfs-py"),
                &workload::functionByName("cur-nj"),
                &workload::functionByName("profile-go"),
            };
            cfg.warmup = 0.03;
            const CalibrationProfile r = calibrate(cfg);
            return DiscountModel(r);
        }();
        return m;
    }

    static const ExperimentResult &result()
    {
        static const ExperimentResult r = [] {
            ExperimentConfig cfg;
            cfg.coRunners = 12;
            cfg.layoutOnePerCore();
            cfg.subjects = {&workload::functionByName("aes-py"),
                            &workload::functionByName("float-py"),
                            &workload::functionByName("pager-py"),
                            &workload::functionByName("rate-go")};
            cfg.repetitions = 3;
            cfg.warmup = 0.08;
            return runPricingExperiment(cfg, model());
        }();
        return r;
    }
};

TEST_F(Pipeline, PricesAreDiscountsNotSurcharges)
{
    for (const auto &row : result().rows) {
        EXPECT_LE(row.litmusPrice, 1.0 + 1e-9) << row.name;
        EXPECT_GT(row.litmusPrice, 0.5) << row.name;
        EXPECT_LE(row.idealPrice, 1.0 + 1e-9) << row.name;
    }
}

TEST_F(Pipeline, LitmusTracksIdealClosely)
{
    // The headline property: the suite-level discount from Litmus
    // pricing sits within ~3 percentage points of the ideal discount.
    EXPECT_NEAR(result().litmusDiscount(), result().idealDiscount(),
                0.03);
    // And each function's price is within 10% of its ideal price.
    for (const auto &row : result().rows)
        EXPECT_NEAR(row.litmusPrice, row.idealPrice, 0.10) << row.name;
}

TEST_F(Pipeline, CongestionProducesRealDiscounts)
{
    EXPECT_GT(result().idealDiscount(), 0.01);
    EXPECT_GT(result().litmusDiscount(), 0.01);
}

TEST_F(Pipeline, FloatPyOverCompensated)
{
    // The paper's incentive discussion: compute-bound functions get
    // more discount than their own slowdown justifies (negative total
    // error), because the machine-wide congestion rate is applied.
    const auto &floatRow = result().row("float-py");
    EXPECT_LT(floatRow.litmusPrice, 1.0);
    EXPECT_LE(floatRow.totalError, 0.02);
}

TEST_F(Pipeline, ErrorDecompositionConsistent)
{
    for (const auto &row : result().rows) {
        EXPECT_NEAR(row.privError + row.sharedError, row.totalError,
                    1e-9)
            << row.name;
    }
}

TEST_F(Pipeline, PredictionsAreSlowdowns)
{
    for (const auto &row : result().rows) {
        EXPECT_GE(row.predictedPriv, 1.0) << row.name;
        EXPECT_GE(row.predictedShared, 1.0) << row.name;
    }
}

TEST_F(Pipeline, AggregatesConsistent)
{
    std::vector<double> lit;
    for (const auto &row : result().rows)
        lit.push_back(row.litmusPrice);
    EXPECT_NEAR(result().gmeanLitmusPrice, gmean(lit), 1e-12);
}

TEST(PipelineDeterminism, SameSeedSameResult)
{
    CalibrationConfig ccfg;
    ccfg.levels = {6, 18};
    ccfg.referencePool = {&workload::functionByName("gzip-py"),
                          &workload::functionByName("aes-go")};
    ccfg.warmup = 0.02;
    const CalibrationProfile cal = calibrate(ccfg);
    const DiscountModel model(cal);

    auto runOnce = [&] {
        ExperimentConfig cfg;
        cfg.coRunners = 6;
        cfg.layoutOnePerCore();
        cfg.subjects = {&workload::functionByName("aes-py")};
        cfg.repetitions = 2;
        cfg.warmup = 0.03;
        cfg.seed = 77;
        return runPricingExperiment(cfg, model);
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_DOUBLE_EQ(a.rows[0].litmusPrice, b.rows[0].litmusPrice);
    EXPECT_DOUBLE_EQ(a.rows[0].idealPrice, b.rows[0].idealPrice);
}

TEST(PipelineMethod1, SharingFactorImprovesSharedEnvironment)
{
    // Method 1 (Section 7.2): in a temporally shared environment,
    // dividing the observed private slowdown by the Figure 14 factor
    // and refunding it must *increase* the granted discount.
    CalibrationConfig ccfg;
    ccfg.levels = {6, 18};
    ccfg.referencePool = {&workload::functionByName("gzip-py"),
                          &workload::functionByName("cur-nj")};
    ccfg.warmup = 0.02;
    const CalibrationProfile cal = calibrate(ccfg);
    const DiscountModel model(cal);

    auto run = [&](double factor) {
        ExperimentConfig cfg;
        cfg.coRunners = 20; // pooled over 4 cpus: 5 per cpu
        cfg.layoutPooled(4);
        cfg.subjects = {&workload::functionByName("aes-py")};
        cfg.repetitions = 2;
        cfg.warmup = 0.08;
        cfg.sharingFactor = factor;
        return runPricingExperiment(cfg, model);
    };
    const auto plain = run(1.0);
    const auto method1 = run(1.017); // warmth(5) ~ 1.017
    EXPECT_LT(method1.gmeanLitmusPrice, plain.gmeanLitmusPrice);
}

} // namespace
} // namespace litmus::pricing
