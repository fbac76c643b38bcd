/**
 * @file
 * Tests for the bench helpers in bench/bench_util.h: the artifact
 * writer (BenchJson), whose output must be valid JSON whatever the
 * keys and values are, so every artifact is parsed back with a strict
 * reader, and the environment knob readers (envOr, benchStrict).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "bench_util.h"

namespace litmus::bench
{
namespace
{

/**
 * Strict reader for the subset BenchJson writes: objects whose
 * values are numbers, null or nested objects. Numbers and nulls land
 * in a flat map keyed "group/key" ("key" at the top level); null
 * reads back as NaN. Any syntax error fails the parse.
 */
class JsonReader
{
  public:
    explicit JsonReader(std::string text) : text_(std::move(text)) {}

    std::optional<std::map<std::string, double>> parse()
    {
        std::map<std::string, double> values;
        if (!object("", values))
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size())
            return std::nullopt;
        return values;
    }

  private:
    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\n'))
            ++pos_;
    }

    bool consume(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    bool string(std::string &out)
    {
        if (!consume('"'))
            return false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            const char e = text_[pos_++];
            if (e == '"' || e == '\\' || e == '/') {
                out += e;
            } else if (e == 'u' && pos_ + 4 <= text_.size()) {
                out += static_cast<char>(
                    std::stoi(text_.substr(pos_, 4), nullptr, 16));
                pos_ += 4;
            } else {
                return false;
            }
        }
        return false;
    }

    bool value(const std::string &name,
               std::map<std::string, double> &values)
    {
        skipSpace();
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            values[name] = std::numeric_limits<double>::quiet_NaN();
            return true;
        }
        if (pos_ < text_.size() && text_[pos_] == '{')
            return object(name + "/", values);
        const std::size_t end =
            text_.find_first_not_of("-+.eE0123456789", pos_);
        const std::string token = text_.substr(pos_, end - pos_);
        // JSON numbers: no leading '+', no bare '.', digits required.
        if (token.empty() || token[0] == '+' || token[0] == '.' ||
            token.find_first_of("0123456789") == std::string::npos)
            return false;
        std::size_t used = 0;
        values[name] = std::stod(token, &used);
        pos_ = end;
        return used == token.size();
    }

    bool object(const std::string &prefix,
                std::map<std::string, double> &values)
    {
        if (!consume('{'))
            return false;
        if (consume('}'))
            return true;
        do {
            std::string key;
            if (!string(key) || !consume(':') ||
                !value(prefix + key, values))
                return false;
        } while (consume(','));
        return consume('}');
    }

    std::string text_;
    std::size_t pos_ = 0;
};

std::optional<std::map<std::string, double>>
parseArtifact(const BenchJson &artifact)
{
    std::ostringstream os;
    artifact.writeTo(os);
    return JsonReader(os.str()).parse();
}

TEST(BenchJson, WritesNonFiniteValuesAsNull)
{
    BenchJson artifact("BENCH_test.json");
    artifact.metric("", "finite", 0.1);
    artifact.metric("", "nan", std::nan(""));
    artifact.metric("g", "inf", std::numeric_limits<double>::infinity());
    artifact.metric("g", "-inf",
                    -std::numeric_limits<double>::infinity());
    artifact.metric("g", "big", 1e300);

    const auto values = parseArtifact(artifact);
    ASSERT_TRUE(values.has_value());
    EXPECT_EQ(values->at("finite"), 0.1); // 17 digits round-trip
    EXPECT_TRUE(std::isnan(values->at("nan")));
    EXPECT_TRUE(std::isnan(values->at("g/inf")));
    EXPECT_TRUE(std::isnan(values->at("g/-inf")));
    EXPECT_EQ(values->at("g/big"), 1e300);
}

TEST(BenchJson, EscapesGroupAndMetricKeys)
{
    BenchJson artifact("BENCH_test.json");
    artifact.metric("", "say \"hi\"", 1.0);
    artifact.metric("C:\\bench", "a\\b\"c", 2.0);
    artifact.metric("C:\\bench", "tab\there", 3.0);

    const auto values = parseArtifact(artifact);
    ASSERT_TRUE(values.has_value());
    EXPECT_EQ(values->size(), 3u);
    EXPECT_EQ(values->at("say \"hi\""), 1.0);
    EXPECT_EQ(values->at("C:\\bench/a\\b\"c"), 2.0);
    EXPECT_EQ(values->at("C:\\bench/tab\there"), 3.0);
}

TEST(BenchJson, ReaderRejectsTheOldOutput)
{
    // The reader is strict: bare nan/inf and unescaped quotes fail.
    EXPECT_FALSE(JsonReader("{\n  \"x\": nan\n}\n").parse());
    EXPECT_FALSE(JsonReader("{\n  \"x\": inf\n}\n").parse());
    EXPECT_FALSE(JsonReader("{\n  \"a\"b\": 1\n}\n").parse());
    EXPECT_TRUE(JsonReader("{\n  \"x\": -1.5e-3\n}\n").parse());
}

TEST(EnvOr, ParsesAndValidates)
{
    ::unsetenv("LITMUS_TEST_KNOB");
    EXPECT_EQ(envOr("LITMUS_TEST_KNOB", 7u), 7u);
    ::setenv("LITMUS_TEST_KNOB", "12", 1);
    EXPECT_EQ(envOr("LITMUS_TEST_KNOB", 7u), 12u);
    ::setenv("LITMUS_TEST_KNOB", "-3", 1);
    EXPECT_EXIT(envOr("LITMUS_TEST_KNOB", 7u),
                ::testing::ExitedWithCode(1), "positive");
    ::unsetenv("LITMUS_TEST_KNOB");
}

TEST(EnvOr, RejectsZeroRepsWithClearError)
{
    // The bench knob everyone actually sets: LITMUS_REPS=0 must die
    // with the "positive integer" message, not loop zero times.
    ::setenv("LITMUS_REPS", "0", 1);
    EXPECT_EXIT(envOr("LITMUS_REPS", 5u),
                ::testing::ExitedWithCode(1),
                "LITMUS_REPS must be a positive integer");
    ::unsetenv("LITMUS_REPS");
}

TEST(BenchStrict, OnlyZeroRelaxes)
{
    ::unsetenv("LITMUS_BENCH_STRICT");
    EXPECT_TRUE(benchStrict());
    for (const char *armed : {"1", "yes", "", "00"}) {
        ::setenv("LITMUS_BENCH_STRICT", armed, 1);
        EXPECT_TRUE(benchStrict()) << "'" << armed << "'";
    }
    ::setenv("LITMUS_BENCH_STRICT", "0", 1);
    EXPECT_FALSE(benchStrict());
    ::unsetenv("LITMUS_BENCH_STRICT");
}

} // namespace
} // namespace litmus::bench
