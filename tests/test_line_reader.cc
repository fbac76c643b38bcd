/**
 * @file
 * Tests for the shared line reader: the line rules every text input
 * follows, the strict number grammar at its edges, and the
 * "<source>:<line>: message" failure format.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/line_reader.h"
#include "scenario/scenario.h"
#include "scenario/traffic_model.h"

namespace litmus
{
namespace
{

/** Write @p text to a per-test temp file and return its path. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + "line_reader_" + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

/** Every line the reader yields, as "line:text". */
std::vector<std::string>
readAll(LineReader &in)
{
    std::vector<std::string> out;
    while (in.next())
        out.push_back(std::to_string(in.at().line) + ":" +
                      std::string(in.line()));
    return out;
}

// ---- lines --------------------------------------------------------------

TEST(LineReader, CommentsBlankLinesAndCrlf)
{
    LineReader in = LineReader::fromText("# header comment\r\n"
                                         "a = 1\r\n"
                                         "   \t \r\n"
                                         "\r\n"
                                         "  b = 2  # trailing\r\n"
                                         "\tc\t\n"
                                         "#\n"
                                         "last",
                                         "<text>");
    EXPECT_EQ(readAll(in), (std::vector<std::string>{
                               "2:a = 1", "5:b = 2", "6:c", "8:last"}));
}

TEST(LineReader, ReadsFilesAndStreamsAlike)
{
    const std::string text = "x\n\n  y # z\n";
    const std::string path = writeTemp("alike.txt", text);
    LineReader file(path);
    std::istringstream stream(text);
    LineReader fromStream(stream, "<stream>");
    const std::vector<std::string> expected = {"1:x", "3:y"};
    EXPECT_EQ(readAll(file), expected);
    EXPECT_EQ(readAll(fromStream), expected);
    EXPECT_EQ(file.source(), path);
    EXPECT_EQ(fromStream.source(), "<stream>");
    std::remove(path.c_str());
}

TEST(LineReader, MissingFileFatal)
{
    EXPECT_EXIT(LineReader("/nonexistent/input.txt"),
                ::testing::ExitedWithCode(1),
                "cannot read '/nonexistent/input\\.txt'");
}

TEST(LineReader, SplitsFieldsAndWords)
{
    std::vector<std::string_view> fields = {"stale"};
    splitFields(" a , ,b\t,", ',', fields);
    EXPECT_EQ(fields, (std::vector<std::string_view>{"a", "", "b", ""}));
    splitFields("solo", ',', fields);
    EXPECT_EQ(fields, (std::vector<std::string_view>{"solo"}));
    splitWords("  congestion\tpython  ct 2 ", fields);
    EXPECT_EQ(fields, (std::vector<std::string_view>{"congestion",
                                                     "python", "ct", "2"}));
    splitWords("", fields);
    EXPECT_TRUE(fields.empty());
}

// ---- the failure format -------------------------------------------------

TEST(LineReader, FailNamesSourceAndLine)
{
    EXPECT_EXIT(SourceLine({"dir/in.csv", 7}).fail("bad ", 3, " things"),
                ::testing::ExitedWithCode(1),
                "^fatal: dir/in\\.csv:7: bad 3 things");
    // In-memory text: the caller's fixed label stands in for a path.
    EXPECT_EXIT(SourceLine({"<config>", 2}).fail("oops"),
                ::testing::ExitedWithCode(1), "^fatal: <config>:2: oops");
    // Line 0 names the whole input.
    EXPECT_EXIT(SourceLine({"in.csv", 0}).fail("empty"),
                ::testing::ExitedWithCode(1), "^fatal: in\\.csv: empty");
    // No source at all (a CLI value): the bare message.
    EXPECT_EXIT(SourceLine{}.fail("plain"), ::testing::ExitedWithCode(1),
                "^fatal: plain");
}

TEST(LineReader, ReaderFailUsesTheCurrentLine)
{
    LineReader in = LineReader::fromText("ok\n\n# skip\nbroken\n", "<t>");
    ASSERT_TRUE(in.next());
    ASSERT_TRUE(in.next());
    EXPECT_EXIT(in.fail("no good: '", in.line(), "'"),
                ::testing::ExitedWithCode(1), "<t>:4: no good: 'broken'");
}

// ---- the number grammar -------------------------------------------------

TEST(LineReaderNumbers, AcceptedInputs)
{
    EXPECT_EQ(parseNumber<double>("2.5"), 2.5);
    EXPECT_EQ(parseNumber<double>(".5"), 0.5);
    EXPECT_EQ(parseNumber<double>("5."), 5.0);
    EXPECT_EQ(parseNumber<double>("-3"), -3.0);
    EXPECT_EQ(parseNumber<double>("1e5"), 1e5);
    // The smallest subnormal is finite and in range.
    EXPECT_EQ(parseNumber<double>("4.9e-324"),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(parseNumber<long>("-3"), -3L);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseNumber<unsigned>("4294967295"), 4294967295u);
}

TEST(LineReaderNumbers, RefusedInputs)
{
    for (const char *text :
         {"1e400", "1e-400", "0x10", " 7", "7 ", "+1.0", "nan", "inf",
          "-inf", "1.5e", "12abc", "", "1,5"}) {
        EXPECT_FALSE(parseNumber<double>(text)) << text;
    }
    for (const char *text : {"99999999999999999999", "0x10", " 7", "+7",
                             "1.5", "1e3", "12abc", ""}) {
        EXPECT_FALSE(parseNumber<long>(text)) << text;
    }
    EXPECT_FALSE(parseNumber<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseNumber<std::uint64_t>("-1"));
    EXPECT_FALSE(parseNumber<unsigned>("4294967296"));
}

TEST(LineReaderNumbers, RefusalsNameTheirLine)
{
    const SourceLine at{"in.txt", 3};
    for (const char *text :
         {"1e400", "1e-400", "0x10", " 7", "nan", "inf", "1.5e",
          "12abc"}) {
        EXPECT_EXIT((void)at.number<double>(text, "value"),
                    ::testing::ExitedWithCode(1),
                    "in\\.txt:3: value expects a finite number, got '")
            << text;
    }
    EXPECT_EXIT((void)at.number<long>("99999999999999999999", "count"),
                ::testing::ExitedWithCode(1),
                "in\\.txt:3: count expects an integer, got "
                "'99999999999999999999'");
    EXPECT_EXIT((void)at.number<long>("12abc", "count"),
                ::testing::ExitedWithCode(1),
                "in\\.txt:3: count expects an integer, got '12abc'");
    // A negative value for an unsigned names the floor it broke.
    EXPECT_EXIT((void)at.number<unsigned>("-4", "count"),
                ::testing::ExitedWithCode(1),
                "in\\.txt:3: count must be >= 0, got -4");
    EXPECT_EXIT((void)at.number<std::uint64_t>("-1", "seed"),
                ::testing::ExitedWithCode(1),
                "in\\.txt:3: seed must be >= 0, got -1");
    EXPECT_EXIT((void)at.number<unsigned>("4294967296", "count"),
                ::testing::ExitedWithCode(1),
                "in\\.txt:3: count must be <= 4294967295, got 4294967296");
    EXPECT_EXIT((void)at.number<unsigned>("0", "retries", 1u),
                ::testing::ExitedWithCode(1),
                "in\\.txt:3: retries must be >= 1, got 0");
}

TEST(LineReaderNumbers, SeedsAreFullWidthUnsigned)
{
    using scenario::ScenarioSpec;
    EXPECT_EQ(ScenarioSpec::fromString("seed = 9223372036854775808\n").seed,
              std::uint64_t{1} << 63);
    EXPECT_EQ(ScenarioSpec::fromString("fault.seed = 18446744073709551615\n")
                  .fault.seed,
              std::numeric_limits<std::uint64_t>::max());
    // Overflow is an error, never a clamp to the largest value.
    EXPECT_EXIT((void)ScenarioSpec::fromString(
                    "seed = 1\nfault.seed = 18446744073709551616\n"),
                ::testing::ExitedWithCode(1),
                "<config>:2: scenario key 'fault\\.seed' expects an "
                "integer");
    EXPECT_EXIT((void)ScenarioSpec::fromString("seed = -1\n"),
                ::testing::ExitedWithCode(1),
                "<config>:1: scenario key 'seed' must be >= 0");
}

// ---- trace header detection ----------------------------------------------

/** Every arrival a trace file yields. */
std::vector<double>
traceArrivals(const std::string &path)
{
    scenario::TraceCsvReader reader(path);
    scenario::TraceRow row;
    std::vector<double> out;
    while (reader.next(row))
        out.push_back(row.arrival);
    return out;
}

TEST(LineReaderTrace, SignedFirstRowIsNeverAHeader)
{
    // "+1.0" starts like a number: a data row, refused at its line by
    // the strict grammar, never skipped as a header.
    const std::string path = writeTemp("plus.csv", "+1.0,float-py\n");
    EXPECT_EXIT((void)traceArrivals(path), ::testing::ExitedWithCode(1),
                "line_reader_plus\\.csv:1: bad arrival timestamp '\\+1\\.0'");
    std::remove(path.c_str());
}

TEST(LineReaderTrace, OnlyALetterLedFirstRowIsAHeader)
{
    const std::string header = writeTemp(
        "header.csv", "# log\nArrival_Seconds,function\n0.5,float-py\n");
    EXPECT_EQ(traceArrivals(header), std::vector<double>{0.5});
    std::remove(header.c_str());

    // Rows led by inf/nan (numbers to any float parser) or by a
    // sign or point are data rows, refused at their line.
    for (const char *first : {"nan,float-py", "Infinity,float-py",
                              "NaNs,function", ".x,function", "-x,f"}) {
        const std::string path =
            writeTemp("not_header.csv", std::string(first) + "\n1,float-py\n");
        EXPECT_EXIT((void)traceArrivals(path), ::testing::ExitedWithCode(1),
                    "not_header\\.csv:1: bad arrival timestamp")
            << first;
        std::remove(path.c_str());
    }

    // A header is allowed on the first row only.
    const std::string late = writeTemp(
        "late_header.csv", "0.5,float-py\narrival_seconds,function\n");
    EXPECT_EXIT((void)traceArrivals(late), ::testing::ExitedWithCode(1),
                "late_header\\.csv:2: bad arrival timestamp "
                "'arrival_seconds'");
    std::remove(late.c_str());
}

TEST(LineReaderTrace, CrlfTraceParses)
{
    const std::string path =
        writeTemp("crlf.csv", "t,function\r\n0.25,aes-go\r\n\r\n1,\r\n");
    EXPECT_EQ(traceArrivals(path), (std::vector<double>{0.25, 1.0}));
    std::remove(path.c_str());
}

} // namespace
} // namespace litmus
