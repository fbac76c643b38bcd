#include "common/config_reader.h"

#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace litmus
{

namespace
{

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

/** Diagnostic prefix for @p key: its file:line, else "ConfigReader". */
std::string
label(const ConfigReader &config, const std::string &key)
{
    const std::string where = config.where(key);
    return where.empty() ? "ConfigReader" : where;
}

} // namespace

ConfigReader
ConfigReader::fromString(const std::string &text,
                         const std::string &source)
{
    ConfigReader reader;
    reader.source_ = source;
    const std::string label = source.empty() ? "ConfigReader" : source;
    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto comment = line.find('#');
        if (comment != std::string::npos)
            line = line.substr(0, comment);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal(label, ": line ", lineNo, " is not key=value: '",
                  line, "'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (key.empty())
            fatal(label, ": empty key on line ", lineNo);
        reader.set(key, value);
        reader.lines_[key] = lineNo;
    }
    return reader;
}

ConfigReader
ConfigReader::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("ConfigReader: cannot open '", path, "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromString(buffer.str(), path);
}

bool
ConfigReader::contains(const std::string &key) const
{
    return values_.contains(key);
}

std::string
ConfigReader::get(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        fatal("ConfigReader: missing key '", key, "'");
    return it->second;
}

std::string
ConfigReader::getString(const std::string &key,
                        const std::string &fallback) const
{
    return contains(key) ? get(key) : fallback;
}

long
ConfigReader::getInt(const std::string &key, long fallback) const
{
    if (!contains(key))
        return fallback;
    const std::string value = get(key);
    const std::optional<long> parsed = parseLongStrict(value);
    if (!parsed)
        fatal(label(*this, key), ": '", key, "' expects an integer, got '",
              value, "'");
    return *parsed;
}

double
ConfigReader::getDouble(const std::string &key, double fallback) const
{
    if (!contains(key))
        return fallback;
    const std::string value = get(key);
    // Strict parse: whole string consumed AND finite — an "inf"
    // capacity or "nan" rate is configuration poison.
    const std::optional<double> parsed = parseDoubleStrict(value);
    if (!parsed)
        fatal(label(*this, key), ": '", key,
              "' expects a finite number, got '", value, "'");
    return *parsed;
}

void
ConfigReader::set(const std::string &key, const std::string &value)
{
    if (!values_.contains(key))
        order_.push_back(key);
    values_[key] = value;
    // A programmatic override has no file line to point at.
    lines_.erase(key);
}

int
ConfigReader::lineOf(const std::string &key) const
{
    const auto it = lines_.find(key);
    return it == lines_.end() ? 0 : it->second;
}

std::string
ConfigReader::where(const std::string &key) const
{
    const int line = lineOf(key);
    if (source_.empty() && line == 0)
        return "";
    std::string out = source_.empty() ? "<config>" : source_;
    if (line > 0) {
        out += ':';
        out += std::to_string(line);
    }
    return out;
}

} // namespace litmus
