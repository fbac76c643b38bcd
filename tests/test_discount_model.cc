/**
 * @file
 * Tests for the discount model on hand-built synthetic tables, where
 * every prediction can be checked in closed form.
 */

#include <gtest/gtest.h>

#include "core/discount_model.h"

namespace litmus::pricing
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

/**
 * Synthetic world: startup slowdowns equal reference slowdowns under
 * CT-Gen; under MB-Gen references slow twice as much as startups.
 * CT produces 10 L3 misses/us per unit slowdown above 1; MB produces
 * 1000.
 */
CalibrationProfile
syntheticProfile()
{
    CalibrationProfile profile;
    CongestionTable &table = profile.congestion;
    for (Language lang : workload::allLanguages()) {
        ProbeReading base;
        base.privCpi = 0.7;
        base.sharedCpi = 0.2;
        base.instructions = 45e6;
        base.machineL3MissPerUs = 1.0;
        table.setBaseline(lang, base);
    }

    const std::size_t langs = workload::allLanguages().size();
    for (unsigned level : {2u, 4u, 6u, 8u}) {
        const double x = 1.0 + 0.05 * level; // startup slowdown
        CongestionEntry ct;
        ct.privSlowdown = 1.0 + 0.005 * level;
        ct.sharedSlowdown = x;
        ct.totalSlowdown = x;
        ct.l3MissPerUs = 10.0 * (1.0 + 0.05 * level);
        CongestionEntry mb = ct;
        mb.l3MissPerUs = 1000.0 * (1.0 + 0.05 * level);

        CongestionTable::Row ctRow;
        ctRow.level = level;
        ctRow.startups.assign(langs, ct);
        ctRow.reference.privSlowdown = 1.0 + 0.005 * level;
        ctRow.reference.sharedSlowdown = x;
        ctRow.reference.totalSlowdown = x;
        table.add(GeneratorKind::CtGen, ctRow);

        CongestionTable::Row mbRow;
        mbRow.level = level;
        mbRow.startups.assign(langs, mb);
        mbRow.reference.privSlowdown = 1.0 + 0.01 * level;
        mbRow.reference.sharedSlowdown = 1.0 + 2.0 * (x - 1.0);
        mbRow.reference.totalSlowdown = 1.0 + 2.0 * (x - 1.0);
        table.add(GeneratorKind::MbGen, mbRow);
    }
    return profile;
}

DiscountModel
makeModel()
{
    return DiscountModel(syntheticProfile());
}

ProbeReading
observation(double priv_slow, double shared_slow, double l3)
{
    ProbeReading r;
    r.privCpi = 0.7 * priv_slow;
    r.sharedCpi = 0.2 * shared_slow;
    r.instructions = 45e6;
    r.machineL3MissPerUs = l3;
    return r;
}

TEST(DiscountModel, Figure9FitsRecovered)
{
    const DiscountModel model = makeModel();
    // CT: reference shared slowdown == startup shared slowdown.
    const LinearFit &ct = model.perfFit(
        Language::Python, GeneratorKind::CtGen, Component::Shared);
    EXPECT_NEAR(ct.slope(), 1.0, 1e-9);
    EXPECT_NEAR(ct.intercept(), 0.0, 1e-9);
    EXPECT_NEAR(ct.r2(), 1.0, 1e-9);
    // MB: slope 2, intercept -1.
    const LinearFit &mb = model.perfFit(
        Language::Python, GeneratorKind::MbGen, Component::Shared);
    EXPECT_NEAR(mb.slope(), 2.0, 1e-9);
    EXPECT_NEAR(mb.intercept(), -1.0, 1e-9);
}

TEST(DiscountModel, CtLikeObservationUsesCtPrediction)
{
    const DiscountModel model = makeModel();
    // Startup slowed 1.2x, machine misses match the CT line.
    const auto est = model.estimate(observation(1.01, 1.2, 12.0),
                                    Language::Python);
    EXPECT_LT(est.blendWeight, 0.05);
    EXPECT_NEAR(est.predictedShared, 1.2, 0.02);
    EXPECT_NEAR(est.rShared, 1.0 / 1.2, 0.02);
}

TEST(DiscountModel, MbLikeObservationUsesMbPrediction)
{
    const DiscountModel model = makeModel();
    const auto est = model.estimate(observation(1.02, 1.2, 1200.0),
                                    Language::Python);
    EXPECT_GT(est.blendWeight, 0.95);
    // MB reference shared slowdown at startup 1.2 is 1.4.
    EXPECT_NEAR(est.predictedShared, 1.4, 0.02);
}

TEST(DiscountModel, MidwayObservationBlends)
{
    const DiscountModel model = makeModel();
    // Geometric midpoint of 12 and 1200 is 120.
    const auto est = model.estimate(observation(1.015, 1.2, 120.0),
                                    Language::Python);
    EXPECT_NEAR(est.blendWeight, 0.5, 0.05);
    EXPECT_NEAR(est.predictedShared, 1.3, 0.03);
}

TEST(DiscountModel, RatesNeverExceedOne)
{
    const DiscountModel model = makeModel();
    // An uncontended observation must not produce a surcharge.
    const auto est = model.estimate(observation(1.0, 1.0, 1.0),
                                    Language::Python);
    EXPECT_LE(est.rPrivate, 1.0);
    EXPECT_LE(est.rShared, 1.0);
    EXPECT_GE(est.predictedPriv, 1.0);
    EXPECT_GE(est.predictedShared, 1.0);
}

TEST(DiscountModel, SharingFactorRefundsPrivateTime)
{
    const DiscountModel model = makeModel();
    const auto plain = model.estimate(observation(1.025, 1.2, 12.0),
                                      Language::Python, 1.0);
    const auto adjusted = model.estimate(observation(1.025, 1.2, 12.0),
                                         Language::Python, 1.025);
    // Method 1 invariant: the final rate exactly refunds both the
    // predicted congestion slowdown and the sharing inflation.
    EXPECT_NEAR(adjusted.rPrivate * 1.025 * adjusted.predictedPriv, 1.0,
                1e-9);
    EXPECT_LE(adjusted.rPrivate, plain.rPrivate + 1e-3);
}

TEST(DiscountModel, InvalidSharingFactorFatal)
{
    const DiscountModel model = makeModel();
    EXPECT_EXIT(model.estimate(observation(1.1, 1.2, 10.0),
                               Language::Python, 0.0),
                ::testing::ExitedWithCode(1), "sharing factor");
}

TEST(DiscountModel, ObservedSlowdownsReported)
{
    const DiscountModel model = makeModel();
    const auto est = model.estimate(observation(1.05, 1.5, 100.0),
                                    Language::Python);
    EXPECT_NEAR(est.observed.priv, 1.05, 1e-9);
    EXPECT_NEAR(est.observed.shared, 1.5, 1e-9);
}

TEST(DiscountModel, PerLanguageBaselines)
{
    const DiscountModel model = makeModel();
    for (Language lang : workload::allLanguages())
        EXPECT_TRUE(model.baseline(lang).valid());
}

TEST(DiscountModel, MissingTableFatal)
{
    // Only baselines, no rows.
    CalibrationProfile profile;
    for (Language lang : workload::allLanguages()) {
        ProbeReading base;
        base.privCpi = 0.7;
        base.sharedCpi = 0.2;
        base.instructions = 1e6;
        profile.congestion.setBaseline(lang, base);
    }
    EXPECT_EXIT(DiscountModel{profile}, ::testing::ExitedWithCode(1),
                "missing");
}

TEST(DiscountModel, L3FitExposed)
{
    const DiscountModel model = makeModel();
    const LogFit &fit =
        model.l3Fit(Language::Python, GeneratorKind::CtGen);
    // slowdown = 1 + 0.05*level and misses = 10*(1+0.05*level):
    // slowdown = misses/10, i.e. y = 0.1 * x — not a log law, but the
    // fit must still be monotone increasing over the data range.
    EXPECT_GT(fit.b(), 0.0);
}

/** Property: bigger observed slowdowns never shrink the discount. */
class MonotoneDiscount : public ::testing::TestWithParam<double>
{
};

TEST_P(MonotoneDiscount, DiscountGrowsWithCongestion)
{
    const DiscountModel model = makeModel();
    const double s = GetParam();
    const auto lo =
        model.estimate(observation(1.0 + 0.01 * s, 1.0 + 0.2 * s, 50.0),
                       Language::Python);
    const auto hi = model.estimate(
        observation(1.0 + 0.012 * s, 1.0 + 0.3 * s, 50.0),
        Language::Python);
    EXPECT_LE(hi.rShared, lo.rShared + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Severities, MonotoneDiscount,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0, 2.5));

} // namespace
} // namespace litmus::pricing
