/**
 * @file
 * Tests for the calibration table: its congestion half (startup
 * entries per language) and its performance half (the reference
 * entry of each row).
 */

#include <gtest/gtest.h>

#include "core/congestion_table.h"

namespace litmus::pricing
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

ProbeReading
baselineReading()
{
    ProbeReading r;
    r.privCpi = 0.7;
    r.sharedCpi = 0.15;
    r.instructions = 45e6;
    r.machineL3MissPerUs = 1.0;
    return r;
}

CongestionEntry
entry(double priv, double shared, double total, double l3)
{
    CongestionEntry e;
    e.privSlowdown = priv;
    e.sharedSlowdown = shared;
    e.totalSlowdown = total;
    e.l3MissPerUs = l3;
    return e;
}

/** A row with @p startup for every language and a neutral reference. */
CongestionTable::Row
row(unsigned level, const CongestionEntry &startup)
{
    CongestionTable::Row r;
    r.level = level;
    r.startups.assign(workload::allLanguages().size(), startup);
    return r;
}

/** A row whose reference entry carries the given slowdowns. */
CongestionTable::Row
referenceRow(unsigned level, double priv, double shared, double total)
{
    CongestionTable::Row r = row(level, CongestionEntry{});
    r.reference.privSlowdown = priv;
    r.reference.sharedSlowdown = shared;
    r.reference.totalSlowdown = total;
    return r;
}

TEST(CongestionTable, BaselineRoundTrip)
{
    CongestionTable t;
    t.setBaseline(Language::Python, baselineReading());
    EXPECT_DOUBLE_EQ(t.baseline(Language::Python).privCpi, 0.7);
}

TEST(CongestionTable, MissingBaselineFatal)
{
    const CongestionTable t;
    EXPECT_EXIT(t.baseline(Language::Go), ::testing::ExitedWithCode(1),
                "baseline");
}

TEST(CongestionTable, AddAndInterpolate)
{
    CongestionTable t;
    t.add(GeneratorKind::CtGen, row(2, entry(1.01, 1.2, 1.05, 10)));
    t.add(GeneratorKind::CtGen, row(6, entry(1.05, 1.6, 1.15, 30)));
    const CongestionEntry mid =
        t.at(Language::Python, GeneratorKind::CtGen, 4);
    EXPECT_NEAR(mid.privSlowdown, 1.03, 1e-12);
    EXPECT_NEAR(mid.sharedSlowdown, 1.4, 1e-12);
    EXPECT_NEAR(mid.l3MissPerUs, 20.0, 1e-12);
}

TEST(CongestionTable, InterpolatesTheAskedLanguage)
{
    CongestionTable t;
    CongestionTable::Row low = row(2, entry(1, 1, 1, 10));
    low.startups[static_cast<std::size_t>(Language::Go)] =
        entry(1, 2, 1, 100);
    CongestionTable::Row high = row(4, entry(1, 1, 1, 10));
    high.startups[static_cast<std::size_t>(Language::Go)] =
        entry(1, 4, 1, 300);
    t.add(GeneratorKind::MbGen, low);
    t.add(GeneratorKind::MbGen, high);
    EXPECT_DOUBLE_EQ(
        t.at(Language::Go, GeneratorKind::MbGen, 3).sharedSlowdown, 3.0);
    EXPECT_DOUBLE_EQ(
        t.at(Language::NodeJs, GeneratorKind::MbGen, 3).sharedSlowdown,
        1.0);
}

TEST(CongestionTable, ClampsOutsideLevels)
{
    CongestionTable t;
    t.add(GeneratorKind::CtGen, row(2, entry(1.01, 1.2, 1.05, 10)));
    t.add(GeneratorKind::CtGen, row(6, entry(1.05, 1.6, 1.15, 30)));
    EXPECT_DOUBLE_EQ(
        t.at(Language::Python, GeneratorKind::CtGen, 0).privSlowdown,
        1.01);
    EXPECT_DOUBLE_EQ(
        t.at(Language::Python, GeneratorKind::CtGen, 99).privSlowdown,
        1.05);
}

TEST(CongestionTable, SeriesAccessors)
{
    CongestionTable t;
    t.add(GeneratorKind::MbGen, row(2, entry(1.01, 1.5, 1.1, 100)));
    EXPECT_FALSE(t.populated(GeneratorKind::MbGen));
    t.add(GeneratorKind::MbGen, row(4, entry(1.02, 1.9, 1.2, 300)));
    const auto &rows = t.rows(GeneratorKind::MbGen);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[1].level, 4u);
    EXPECT_DOUBLE_EQ(rows[1].startup(Language::Go).sharedSlowdown, 1.9);
    EXPECT_DOUBLE_EQ(rows[0].startup(Language::Go).l3MissPerUs, 100.0);
    EXPECT_TRUE(t.populated(GeneratorKind::MbGen));
    EXPECT_FALSE(t.populated(GeneratorKind::CtGen));
}

TEST(CongestionTable, RejectsNonIncreasingLevels)
{
    CongestionTable t;
    t.add(GeneratorKind::CtGen, row(4, entry(1, 1, 1, 1)));
    EXPECT_EXIT(t.add(GeneratorKind::CtGen, row(4, entry(1, 1, 1, 1))),
                ::testing::ExitedWithCode(1), "increase");
}

TEST(CongestionTable, RejectsRowMissingALanguage)
{
    CongestionTable t;
    CongestionTable::Row partial = row(2, entry(1, 1, 1, 1));
    partial.startups.pop_back();
    EXPECT_EXIT(t.add(GeneratorKind::CtGen, partial),
                ::testing::ExitedWithCode(1),
                "CT-Gen level 2 has 2 startup entries, want 3");
}

TEST(CongestionTable, MissingSeriesFatal)
{
    const CongestionTable t;
    EXPECT_EXIT((void)t.rows(GeneratorKind::CtGen),
                ::testing::ExitedWithCode(1), "no series");
}

// The performance table (Fig. 5, right) is the rows' reference column.

TEST(PerformanceTable, AddAndAccess)
{
    CongestionTable t;
    t.add(GeneratorKind::CtGen, referenceRow(2, 1.02, 1.8, 1.12));
    t.add(GeneratorKind::CtGen, referenceRow(6, 1.02, 2.4, 1.12));
    const auto &rows = t.rows(GeneratorKind::CtGen);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_DOUBLE_EQ(rows[1].reference.sharedSlowdown, 2.4);
    EXPECT_DOUBLE_EQ(rows[0].reference.privSlowdown, 1.02);
    EXPECT_TRUE(t.populated(GeneratorKind::CtGen));
    EXPECT_FALSE(t.populated(GeneratorKind::MbGen));
}

TEST(PerformanceTable, RejectsNonIncreasingLevels)
{
    CongestionTable t;
    t.add(GeneratorKind::MbGen, referenceRow(5, 1, 1, 1));
    EXPECT_EXIT(t.add(GeneratorKind::MbGen, referenceRow(3, 1, 1, 1)),
                ::testing::ExitedWithCode(1), "increase");
}

TEST(PerformanceTable, MissingSeriesFatal)
{
    // Rows for one generator say nothing about the other.
    CongestionTable t;
    t.add(GeneratorKind::CtGen, referenceRow(2, 1, 1, 1));
    EXPECT_EXIT((void)t.rows(GeneratorKind::MbGen),
                ::testing::ExitedWithCode(1), "no series for MB-Gen");
}

} // namespace
} // namespace litmus::pricing
