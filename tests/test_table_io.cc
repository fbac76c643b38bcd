/**
 * @file
 * Round-trip tests for the calibration-profile serialization: v2
 * round-trips (machine name and baselines included), legacy v1
 * parsing, and malformed-input death tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/discount_model.h"
#include "core/table_io.h"

namespace litmus::pricing
{
namespace
{

using workload::GeneratorKind;
using workload::Language;

/** A small but fully populated profile. */
CalibrationProfile
sampleProfile()
{
    CalibrationProfile profile;
    profile.machine = "cascade-5218";
    for (Language lang : workload::allLanguages()) {
        ProbeReading base;
        base.privCpi = 0.71;
        base.sharedCpi = 0.19;
        base.instructions = 45e6;
        base.machineL3MissPerUs = 2.5;
        profile.congestion.setBaseline(lang, base);
    }
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        for (unsigned level : {2u, 8u, 14u}) {
            CongestionEntry e;
            e.privSlowdown = 1.0 + 0.01 * level;
            e.sharedSlowdown = 1.0 + 0.1 * level;
            e.totalSlowdown = 1.0 + 0.02 * level;
            e.l3MissPerUs =
                (gen == GeneratorKind::MbGen ? 100.0 : 5.0) * level;
            CongestionTable::Row row;
            row.level = level;
            row.startups.assign(workload::allLanguages().size(), e);
            row.reference.privSlowdown = 1.0 + 0.012 * level;
            row.reference.sharedSlowdown = 1.0 + 0.09 * level;
            row.reference.totalSlowdown = 1.0 + 0.025 * level;
            profile.congestion.add(gen, row);
        }
    }
    // Awkward doubles on purpose: the round-trip must be bit-exact.
    profile.referenceSolo["gzip-py"] = {0.123456789012345678, 0.1 / 3};
    profile.referenceSolo["mst-go"] = {1.0 / 7, 2.0 / 9};
    return profile;
}

/** A complete hand-written v2 file as lines: baselines, then every
 *  (language, generator, level) congestion row, then every
 *  (generator, level) performance row. */
std::vector<std::string>
v2Lines(const std::vector<unsigned> &congestion_levels,
        const std::vector<unsigned> &performance_levels)
{
    std::vector<std::string> lines = {"litmus-tables v2",
                                      "machine cascade-5218"};
    for (const char *lang : {"python", "nodejs", "go"})
        lines.push_back(std::string("baseline ") + lang +
                        " 0.7 0.2 45000000 2.5");
    for (const char *lang : {"python", "nodejs", "go"}) {
        for (const char *gen : {"ct", "mb"}) {
            for (unsigned level : congestion_levels)
                lines.push_back(std::string("congestion ") + lang + " " +
                                gen + " " + std::to_string(level) +
                                " 1.02 1.2 1.04 10");
        }
    }
    for (const char *gen : {"ct", "mb"}) {
        for (unsigned level : performance_levels)
            lines.push_back(std::string("performance ") + gen + " " +
                            std::to_string(level) + " 1.024 1.18 1.05");
    }
    return lines;
}

/** 1-based number of the first line that starts with @p prefix. */
int
lineOf(const std::vector<std::string> &lines, const std::string &prefix)
{
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].rfind(prefix, 0) == 0)
            return static_cast<int>(i) + 1;
    }
    ADD_FAILURE() << "no line starts with '" << prefix << "'";
    return 0;
}

/** Replace the first line that starts with @p prefix; returns its
 *  1-based number. */
int
replaceLine(std::vector<std::string> &lines, const std::string &prefix,
            const std::string &replacement)
{
    const int line = lineOf(lines, prefix);
    if (line > 0)
        lines[line - 1] = replacement;
    return line;
}

/** Loading @p lines from a file must die with "<path>:<line>: " and
 *  then @p message (a regex). */
void
expectFileError(const std::vector<std::string> &lines, int line,
                const std::string &message)
{
    // One file per test: ctest runs the tests in parallel processes.
    const std::string path =
        std::string("/tmp/litmus_test_table_io_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    {
        std::ofstream out(path);
        for (const std::string &text : lines)
            out << text << '\n';
    }
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                path + ":" + std::to_string(line) + ": " + message);
    std::remove(path.c_str());
}

TEST(TableIo, V2RoundTripPreservesEverything)
{
    const CalibrationProfile profile = sampleProfile();

    std::stringstream stream;
    saveProfile(stream, profile);
    const std::string text = stream.str();
    const CalibrationProfile loaded = loadProfile(stream);

    EXPECT_EQ(loaded.machine, "cascade-5218");

    // Saving the loaded profile reproduces the artifact byte for byte.
    std::ostringstream again;
    saveProfile(again, loaded);
    EXPECT_EQ(again.str(), text);

    for (Language lang : workload::allLanguages()) {
        const ProbeReading &a = profile.congestion.baseline(lang);
        const ProbeReading &b = loaded.congestion.baseline(lang);
        EXPECT_EQ(a.privCpi, b.privCpi);
        EXPECT_EQ(a.sharedCpi, b.sharedCpi);
        EXPECT_EQ(a.instructions, b.instructions);
        EXPECT_EQ(a.machineL3MissPerUs, b.machineL3MissPerUs);
    }
    for (GeneratorKind gen :
         {GeneratorKind::CtGen, GeneratorKind::MbGen}) {
        const auto &want = profile.congestion.rows(gen);
        const auto &got = loaded.congestion.rows(gen);
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(want[i].level, got[i].level);
            for (Language lang : workload::allLanguages()) {
                const CongestionEntry &a = want[i].startup(lang);
                const CongestionEntry &b = got[i].startup(lang);
                EXPECT_EQ(a.privSlowdown, b.privSlowdown);
                EXPECT_EQ(a.sharedSlowdown, b.sharedSlowdown);
                EXPECT_EQ(a.totalSlowdown, b.totalSlowdown);
                EXPECT_EQ(a.l3MissPerUs, b.l3MissPerUs);
            }
            EXPECT_EQ(want[i].reference.privSlowdown,
                      got[i].reference.privSlowdown);
            EXPECT_EQ(want[i].reference.sharedSlowdown,
                      got[i].reference.sharedSlowdown);
            EXPECT_EQ(want[i].reference.totalSlowdown,
                      got[i].reference.totalSlowdown);
        }
    }

    // Solo baselines travel with the profile, bit-exactly.
    ASSERT_EQ(loaded.referenceSolo.size(), 2u);
    EXPECT_EQ(loaded.referenceSolo.at("gzip-py").privCpi,
              profile.referenceSolo.at("gzip-py").privCpi);
    EXPECT_EQ(loaded.referenceSolo.at("gzip-py").sharedCpi,
              profile.referenceSolo.at("gzip-py").sharedCpi);
    EXPECT_EQ(loaded.referenceSolo.at("mst-go").privCpi,
              profile.referenceSolo.at("mst-go").privCpi);
}

TEST(TableIo, LoadedProfileBuildsAnIdenticalModel)
{
    const CalibrationProfile profile = sampleProfile();
    std::stringstream stream;
    saveProfile(stream, profile);
    const CalibrationProfile loaded = loadProfile(stream);

    const DiscountModel original(profile);
    const DiscountModel reloaded(loaded);
    EXPECT_EQ(original.machine(), reloaded.machine());

    ProbeReading reading;
    reading.privCpi = 0.71 * 1.05;
    reading.sharedCpi = 0.19 * 1.4;
    reading.instructions = 45e6;
    reading.machineL3MissPerUs = 120.0;
    const auto a = original.estimate(reading, Language::Python);
    const auto b = reloaded.estimate(reading, Language::Python);
    EXPECT_EQ(a.rPrivate, b.rPrivate);
    EXPECT_EQ(a.rShared, b.rShared);
    EXPECT_EQ(a.blendWeight, b.blendWeight);
}

TEST(TableIo, FileRoundTrip)
{
    const CalibrationProfile profile = sampleProfile();
    const std::string path = "/tmp/litmus_test_tables.txt";
    saveProfile(path, profile);
    const CalibrationProfile loaded = loadProfile(path);
    EXPECT_EQ(loaded.machine, profile.machine);
    EXPECT_TRUE(loaded.congestion.populated(GeneratorKind::MbGen));
}

TEST(TableIo, HandWrittenV1StillLoads)
{
    // A legacy artifact: no machine, no solo records. It must parse,
    // carry an empty (wildcard) machine name, and hold the rows.
    std::string text = "litmus-tables v1\n";
    for (const char *lang : {"python", "nodejs", "go"}) {
        text += std::string("baseline ") + lang +
                " 0.7 0.2 45000000 2.5\n";
        for (const char *gen : {"ct", "mb"}) {
            text += std::string("congestion ") + lang + " " + gen +
                    " 2 1.02 1.2 1.04 10\n";
            text += std::string("congestion ") + lang + " " + gen +
                    " 8 1.08 1.8 1.16 40\n";
        }
    }
    for (const char *gen : {"ct", "mb"}) {
        text += std::string("performance ") + gen +
                " 2 1.024 1.18 1.05\n";
        text += std::string("performance ") + gen +
                " 8 1.096 1.72 1.2\n";
    }

    std::stringstream stream(text);
    const CalibrationProfile loaded = loadProfile(stream);
    EXPECT_TRUE(loaded.machine.empty());
    EXPECT_TRUE(loaded.referenceSolo.empty());
    const auto &rows = loaded.congestion.rows(GeneratorKind::MbGen);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].level, 2u);
    EXPECT_EQ(rows[1].level, 8u);
    EXPECT_EQ(rows[1].startup(Language::Go).privSlowdown, 1.08);
    EXPECT_EQ(rows[1].reference.totalSlowdown, 1.2);
    // Wildcard artifacts price any machine.
    EXPECT_NO_FATAL_FAILURE(loaded.requireMachine("icelake-4314"));
}

TEST(TableIo, V1RejectsV2Records)
{
    std::stringstream machineInV1(
        "litmus-tables v1\nmachine cascade-5218\n");
    EXPECT_EXIT(loadProfile(machineInV1),
                ::testing::ExitedWithCode(1), "v1");
    std::stringstream soloInV1(
        "litmus-tables v1\nsolo gzip-py 0.5 0.25\n");
    EXPECT_EXIT(loadProfile(soloInV1), ::testing::ExitedWithCode(1),
                "v1");
}

TEST(TableIo, BadHeaderFatal)
{
    std::stringstream stream("not-litmus v9\n");
    EXPECT_EXIT(loadProfile(stream), ::testing::ExitedWithCode(1),
                "bad header");
    std::stringstream v3("litmus-tables v3\n");
    EXPECT_EXIT(loadProfile(v3), ::testing::ExitedWithCode(1),
                "bad header");
}

TEST(TableIo, TruncatedRowsFatal)
{
    std::stringstream congestion(
        "litmus-tables v1\ncongestion python ct 2 1.0\n");
    EXPECT_EXIT(loadProfile(congestion), ::testing::ExitedWithCode(1),
                "<tables>:2: malformed congestion row: 4 of 7 fields");
    std::stringstream baseline("litmus-tables v2\nbaseline go 0.7\n");
    EXPECT_EXIT(loadProfile(baseline), ::testing::ExitedWithCode(1),
                "<tables>:2: malformed baseline: 2 of 5 fields");
    std::stringstream solo("litmus-tables v2\nsolo gzip-py 0.5\n");
    EXPECT_EXIT(loadProfile(solo), ::testing::ExitedWithCode(1),
                "<tables>:2: malformed solo baseline: 2 of 3 fields");
    std::stringstream machine("litmus-tables v2\nmachine\n");
    EXPECT_EXIT(loadProfile(machine), ::testing::ExitedWithCode(1),
                "<tables>:2: malformed machine record: 0 of 1 fields");
    std::stringstream performance(
        "litmus-tables v2\nperformance mb 2 1.0 1.1\n");
    EXPECT_EXIT(loadProfile(performance),
                ::testing::ExitedWithCode(1),
                "<tables>:2: malformed performance row: 4 of 5 fields");
}

TEST(TableIo, MisalignedLevelsFatal)
{
    // Performance rows at {2, 20} and congestion rows at {2, 8}: level
    // 8 has no reference to fit against, whatever the row counts.
    const auto lines = v2Lines({2, 8}, {2, 20});
    expectFileError(lines, lineOf(lines, "congestion python ct 8 "),
                    "generator ct level 8 has no performance row");
}

TEST(TableIo, ExtraCongestionRowFatal)
{
    auto lines = v2Lines({2, 8}, {2, 8});
    lines.push_back("congestion python mb 14 1.1 1.3 1.08 20");
    expectFileError(lines, static_cast<int>(lines.size()),
                    "generator mb level 14 has no nodejs congestion row");
}

/** Loading @p lines from a file must die with "<path>: " and then
 *  @p message: a gap in the whole profile, not on one line. */
void
expectIncompleteFile(const std::vector<std::string> &lines,
                     const std::string &message)
{
    const std::string path =
        std::string("/tmp/litmus_test_table_io_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    {
        std::ofstream out(path);
        for (const std::string &text : lines)
            out << text << '\n';
    }
    EXPECT_EXIT(loadProfile(path), ::testing::ExitedWithCode(1),
                path + ": " + message);
    std::remove(path.c_str());
}

/** @p lines without the records that start with @p prefix. */
std::vector<std::string>
withoutRecords(std::vector<std::string> lines, const std::string &prefix)
{
    std::erase_if(lines, [&](const std::string &line) {
        return line.rfind(prefix, 0) == 0;
    });
    return lines;
}

TEST(TableIo, GeneratorWithoutRowsFatal)
{
    auto lines = withoutRecords(v2Lines({2, 8}, {2, 8}), "performance mb");
    for (const char *lang : {"python", "nodejs", "go"})
        lines = withoutRecords(lines, std::string("congestion ") + lang +
                                          " mb");
    expectIncompleteFile(lines, "generator mb has 0 level\\(s\\)");
}

TEST(TableIo, LanguageWithoutBaselineFatal)
{
    expectIncompleteFile(
        withoutRecords(v2Lines({2, 8}, {2, 8}), "baseline nodejs"),
        "no baseline for nodejs");
}

TEST(TableIo, SingleLevelGeneratorFatal)
{
    expectIncompleteFile(v2Lines({8}, {8}),
                         "generator ct has 1 level\\(s\\), the discount "
                         "model fits a line through at least 2");
}

TEST(TableIo, DuplicateRowFatal)
{
    auto lines = v2Lines({2, 8}, {2, 8});
    lines.push_back("performance ct 8 1.1 1.3 1.08");
    expectFileError(lines, static_cast<int>(lines.size()),
                    "duplicate performance row for ct level 8");
}

TEST(TableIo, HugeLevelFatal)
{
    // 1e30 does not fit an unsigned: the cast would be undefined.
    auto lines = v2Lines({2, 8}, {2, 8});
    const int line = replaceLine(lines, "congestion python ct 8 ",
                                 "congestion python ct 1e30 1.02 1.2 "
                                 "1.04 10");
    expectFileError(lines, line,
                    "malformed congestion row: level '1e30' is not an "
                    "integer in \\[0, 4294967295\\]");
}

TEST(TableIo, NegativeLevelFatal)
{
    auto lines = v2Lines({2, 8}, {2, 8});
    const int line = replaceLine(lines, "performance mb 2 ",
                                 "performance mb -2 1.024 1.18 1.05");
    expectFileError(lines, line,
                    "malformed performance row: level '-2' is not an "
                    "integer");
}

TEST(TableIo, FractionalLevelFatal)
{
    // 2.5 used to be truncated to level 2 without a word.
    auto lines = v2Lines({2, 8}, {2, 8});
    const int line = replaceLine(lines, "congestion go mb 8 ",
                                 "congestion go mb 2.5 1.02 1.2 1.04 10");
    expectFileError(lines, line,
                    "malformed congestion row: level '2.5' is not an "
                    "integer");
}

TEST(TableIo, TrailingTokenFatal)
{
    auto lines = v2Lines({2, 8}, {2, 8});
    lines.push_back("solo gzip-py 0.5 0.25 garbage");
    expectFileError(lines, static_cast<int>(lines.size()),
                    "malformed solo baseline: trailing token 'garbage'");

    // The stream overload keeps the line number.
    std::stringstream stream(
        "litmus-tables v2\nbaseline go 0.7 0.2 45e6 2.5 3\n");
    EXPECT_EXIT(loadProfile(stream), ::testing::ExitedWithCode(1),
                "<tables>:2: malformed baseline: trailing token '3'");
}

TEST(TableIo, UnknownTokensNameTheirLine)
{
    auto lines = v2Lines({2, 8}, {2, 8});
    int line = replaceLine(lines, "congestion nodejs mb 2 ",
                           "congestion cobol mb 2 1.02 1.2 1.04 10");
    expectFileError(lines, line, "unknown language 'cobol'");

    lines = v2Lines({2, 8}, {2, 8});
    line = replaceLine(lines, "performance ct 8 ",
                       "performance xx 8 1.024 1.18 1.05");
    expectFileError(lines, line, "unknown generator 'xx'");
}

TEST(TableIo, GarbledFieldsFatal)
{
    // Numbers where tokens should be and vice versa.
    std::stringstream badLang(
        "litmus-tables v2\nbaseline fortran 0.7 0.2 45e6 2.5\n");
    EXPECT_EXIT(loadProfile(badLang), ::testing::ExitedWithCode(1),
                "unknown language");
    std::stringstream badGen(
        "litmus-tables v2\nperformance turbo 2 1.0 1.1 1.2\n");
    EXPECT_EXIT(loadProfile(badGen), ::testing::ExitedWithCode(1),
                "unknown generator");
    std::stringstream badNumber(
        "litmus-tables v2\n"
        "congestion python ct two 1.0 1.1 1.2 10\n");
    EXPECT_EXIT(loadProfile(badNumber), ::testing::ExitedWithCode(1),
                "malformed congestion row");
}

TEST(TableIo, UnknownRecordFatal)
{
    std::stringstream stream("litmus-tables v2\nwhatever 1 2 3\n");
    EXPECT_EXIT(loadProfile(stream), ::testing::ExitedWithCode(1),
                "unknown record");
}

TEST(TableIo, MissingFileFatal)
{
    EXPECT_EXIT(loadProfile("/nonexistent/tables.txt"),
                ::testing::ExitedWithCode(1),
                "cannot read '/nonexistent/tables\\.txt'");
}

TEST(TableIo, CommentsCrlfAndPaddingLoad)
{
    // The shared line rules: '#' comments, blank lines, CRLF endings
    // and padding read like the plain file.
    std::ostringstream plain;
    std::ostringstream dressed;
    dressed << "# calibrated on a quiet host\r\n";
    for (const std::string &line : v2Lines({2, 8}, {2, 8})) {
        plain << line << '\n';
        dressed << "  " << line << "\t# note\r\n\r\n";
    }
    std::stringstream plainIn(plain.str());
    std::stringstream dressedIn(dressed.str());
    std::ostringstream a;
    std::ostringstream b;
    saveProfile(a, loadProfile(plainIn));
    saveProfile(b, loadProfile(dressedIn));
    EXPECT_EQ(a.str(), b.str());
}

TEST(TableIo, NonFiniteOrHexNumbersFatal)
{
    auto lines = v2Lines({2, 8}, {2, 8});
    int line = replaceLine(lines, "baseline go ",
                           "baseline go inf 0.2 45000000 2.5");
    expectFileError(lines, line,
                    "malformed baseline: 'inf' is not a finite number");
    lines = v2Lines({2, 8}, {2, 8});
    line = replaceLine(lines, "performance mb 8 ",
                       "performance mb 8 0x1 1.18 1.05");
    expectFileError(lines, line,
                    "malformed performance row: '0x1' is not a finite "
                    "number");
}

TEST(TableIo, SaveRefusesMachineNamesThatWouldNotReload)
{
    // Table files take '#' comments: a '#' in a name would cut the
    // record short on reload, and whitespace would split it.
    CalibrationProfile profile = sampleProfile();
    std::ostringstream out;
    profile.machine = "cascade#2";
    EXPECT_EXIT(saveProfile(out, profile), ::testing::ExitedWithCode(1),
                "saveProfile: machine name 'cascade#2' contains "
                "whitespace or '#'");
    profile.machine = "cascade 5218";
    EXPECT_EXIT(saveProfile(out, profile), ::testing::ExitedWithCode(1),
                "saveProfile: machine name 'cascade 5218'");
}

TEST(TableIo, SaveRefusesSoloNamesThatWouldNotReload)
{
    CalibrationProfile profile = sampleProfile();
    std::ostringstream out;
    profile.referenceSolo["gzip#py"] = {0.5, 0.25};
    EXPECT_EXIT(saveProfile(out, profile), ::testing::ExitedWithCode(1),
                "saveProfile: solo name 'gzip#py' contains whitespace or "
                "'#'");
    profile.referenceSolo.erase("gzip#py");
    profile.referenceSolo["gzip py"] = {0.5, 0.25};
    EXPECT_EXIT(saveProfile(out, profile), ::testing::ExitedWithCode(1),
                "saveProfile: solo name 'gzip py'");
}

TEST(TableIo, ProfileMachineMismatchFatal)
{
    const CalibrationProfile profile = sampleProfile();
    EXPECT_NO_FATAL_FAILURE(profile.requireMachine("cascade-5218"));
    EXPECT_NO_FATAL_FAILURE(profile.requireMachine(""));
    EXPECT_EXIT(profile.requireMachine("icelake-4314"),
                ::testing::ExitedWithCode(1),
                "calibrated on 'cascade-5218'");

    const DiscountModel model(profile);
    EXPECT_EQ(model.machine(), "cascade-5218");
    EXPECT_EXIT(model.requireMachine("icelake-4314"),
                ::testing::ExitedWithCode(1),
                "calibrated on 'cascade-5218'");
}

} // namespace
} // namespace litmus::pricing
