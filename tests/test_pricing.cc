/**
 * @file
 * Tests for the pricing engine and billing ledger.
 */

#include <gtest/gtest.h>

#include "core/billing.h"

namespace litmus::pricing
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

/** Minimal synthetic model (same rows as test_discount_model's CT
 *  generator, used for both generators). */
DiscountModel
makeModel()
{
    CalibrationProfile profile;
    for (Language lang : workload::allLanguages()) {
        ProbeReading base;
        base.privCpi = 0.7;
        base.sharedCpi = 0.2;
        base.instructions = 45e6;
        base.machineL3MissPerUs = 1.0;
        profile.congestion.setBaseline(lang, base);
    }
    for (unsigned level : {2u, 4u, 6u, 8u}) {
        const double x = 1.0 + 0.05 * level;
        CongestionTable::Row row;
        row.level = level;
        row.reference.privSlowdown = 1.0 + 0.005 * level;
        row.reference.sharedSlowdown = x;
        row.reference.totalSlowdown = x;
        CongestionEntry e;
        e.privSlowdown = 1.0 + 0.005 * level;
        e.sharedSlowdown = x;
        e.totalSlowdown = x;
        e.l3MissPerUs = 10.0 * x;
        row.startups.assign(workload::allLanguages().size(), e);
        profile.congestion.add(GeneratorKind::CtGen, row);
        for (CongestionEntry &startup : row.startups)
            startup.l3MissPerUs = 1000.0 * x;
        profile.congestion.add(GeneratorKind::MbGen, row);
    }
    return DiscountModel(profile);
}

sim::TaskCounters
counters(double instr, double priv_cpi, double shared_cpi)
{
    sim::TaskCounters c;
    c.instructions = instr;
    c.stallSharedCycles = instr * shared_cpi;
    c.cycles = instr * (priv_cpi + shared_cpi);
    return c;
}

ProbeReading
probe(double priv_slow, double shared_slow, double l3)
{
    ProbeReading r;
    r.privCpi = 0.7 * priv_slow;
    r.sharedCpi = 0.2 * shared_slow;
    r.instructions = 45e6;
    r.machineL3MissPerUs = l3;
    return r;
}

TEST(PricingEngine, CommercialIsMeasuredCycles)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    const auto q = pricer.quote(counters(1e8, 0.9, 0.4),
                                probe(1.02, 1.3, 15.0),
                                Language::Python, solo);
    EXPECT_DOUBLE_EQ(q.commercial, 1e8 * 1.3);
}

TEST(PricingEngine, IdealUsesSoloCpi)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    const auto q = pricer.quote(counters(1e8, 0.9, 0.4),
                                probe(1.02, 1.3, 15.0),
                                Language::Python, solo);
    EXPECT_DOUBLE_EQ(q.idealPriv, 0.8e8);
    EXPECT_DOUBLE_EQ(q.idealShared, 0.2e8);
    EXPECT_DOUBLE_EQ(q.ideal, 1.0e8);
    EXPECT_NEAR(q.idealNormalized(), 1.0 / 1.3, 1e-9);
}

TEST(PricingEngine, LitmusAppliesComponentRates)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    const auto q = pricer.quote(counters(1e8, 0.9, 0.4),
                                probe(1.02, 1.3, 15.0),
                                Language::Python, solo);
    EXPECT_NEAR(q.litmusPriv, q.estimate.rPrivate * 0.9e8, 1.0);
    EXPECT_NEAR(q.litmusShared, q.estimate.rShared * 0.4e8, 1.0);
    EXPECT_DOUBLE_EQ(q.litmus, q.litmusPriv + q.litmusShared);
    // With discounts on, the Litmus price undercuts commercial.
    EXPECT_LT(q.litmus, q.commercial);
}

TEST(PricingEngine, ErrorDecomposition)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    const auto q = pricer.quote(counters(1e8, 0.9, 0.4),
                                probe(1.02, 1.3, 15.0),
                                Language::Python, solo);
    EXPECT_NEAR(q.privError() + q.sharedError(), q.totalError(), 1e-12);
    EXPECT_NEAR(q.totalError(), (q.litmus - q.ideal) / q.ideal, 1e-12);
}

TEST(PricingEngine, RejectsEmptyCounters)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    EXPECT_EXIT(pricer.quote(sim::TaskCounters{},
                             probe(1.0, 1.0, 10.0), Language::Python,
                             solo),
                ::testing::ExitedWithCode(1), "instructions");
}

TEST(PricingEngine, RejectsBadSharingFactor)
{
    const DiscountModel model = makeModel();
    EXPECT_EXIT(PricingEngine(model, -1.0),
                ::testing::ExitedWithCode(1), "sharing");
}

TEST(BillingLedger, ChargesGbSeconds)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    const auto c = counters(1e9, 0.9, 0.4);
    const auto q = pricer.quote(c, probe(1.02, 1.3, 15.0),
                                Language::Python, solo);

    BillingConfig bcfg;
    bcfg.billingFrequency = 2.8e9;
    BillingLedger ledger(bcfg);
    const BillRecord &rec =
        ledger.record("tenant-a", "aes-py", c, q, 1_GiB);

    const double seconds = c.cycles / 2.8e9;
    EXPECT_NEAR(rec.cpuSeconds, seconds, 1e-12);
    EXPECT_NEAR(rec.commercialUsd,
                seconds * 1.0 * bcfg.usdPerGiBSecond, 1e-15);
    EXPECT_NEAR(rec.litmusUsd,
                rec.commercialUsd * q.litmusNormalized(), 1e-15);
    EXPECT_GT(rec.discount(), 0.0);
}

TEST(BillingLedger, AggregatesAcrossRecords)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    BillingLedger ledger;
    for (int i = 0; i < 3; ++i) {
        const auto c = counters(1e9, 0.9, 0.4);
        const auto q = pricer.quote(c, probe(1.02, 1.3, 15.0),
                                    Language::Python, solo);
        ledger.record("tenant-a", "fn", c, q, 512_MiB);
    }
    EXPECT_EQ(ledger.records().size(), 3u);
    EXPECT_NEAR(ledger.totalLitmusUsd(),
                ledger.records()[0].litmusUsd * 3, 1e-12);
    EXPECT_GT(ledger.aggregateDiscount(), 0.0);
    EXPECT_LT(ledger.aggregateDiscount(), 1.0);
}

TEST(BillingLedger, TenantFilter)
{
    const DiscountModel model = makeModel();
    const PricingEngine pricer(model);
    SoloBaseline solo{0.8, 0.2};
    BillingLedger ledger;
    const auto c = counters(1e8, 0.9, 0.4);
    const auto q = pricer.quote(c, probe(1.02, 1.3, 15.0),
                                Language::Python, solo);
    ledger.record("a", "f1", c, q, 256_MiB);
    ledger.record("b", "f2", c, q, 256_MiB);
    ledger.record("a", "f3", c, q, 256_MiB);
    EXPECT_EQ(ledger.tenantRecords("a").size(), 2u);
    EXPECT_EQ(ledger.tenantRecords("b").size(), 1u);
    EXPECT_TRUE(ledger.tenantRecords("c").empty());
}

TEST(BillingLedger, RejectsBadConfig)
{
    BillingConfig cfg;
    cfg.usdPerGiBSecond = 0.0;
    EXPECT_EXIT({ BillingLedger ledger(cfg); }, 
                ::testing::ExitedWithCode(1), "rates");
}

TEST(BillingLedger, EmptyAggregates)
{
    const BillingLedger ledger;
    EXPECT_DOUBLE_EQ(ledger.totalCommercialUsd(), 0.0);
    EXPECT_DOUBLE_EQ(ledger.aggregateDiscount(), 0.0);
}

} // namespace
} // namespace litmus::pricing
