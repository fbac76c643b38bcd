/**
 * @file
 * Tests for console/CSV table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/text_table.h"

namespace litmus
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer-name", "2"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, RowCount)
{
    TextTable t({"x"});
    EXPECT_EQ(t.rowCount(), 0u);
    t.addRow({"1"});
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, RejectsMismatchedRow)
{
    TextTable t({"a", "b"});
    EXPECT_EXIT(t.addRow({"only-one"}), ::testing::ExitedWithCode(1),
                "cells");
}

TEST(TextTable, RejectsEmptyHeader)
{
    EXPECT_EXIT(TextTable({}), ::testing::ExitedWithCode(1), "column");
}

TEST(TextTable, NumFormatting)
{
    EXPECT_EQ(TextTable::num(1.23456, 3), "1.235");
    EXPECT_EQ(TextTable::num(2.0, 1), "2.0");
    EXPECT_EQ(TextTable::num(-0.5, 2), "-0.50");
}

TEST(Banner, ContainsTitle)
{
    std::ostringstream os;
    printBanner(os, "My Title");
    EXPECT_NE(os.str().find("My Title"), std::string::npos);
    EXPECT_NE(os.str().find("===="), std::string::npos);
}

} // namespace
} // namespace litmus
