#include "common/config_reader.h"

namespace litmus
{

ConfigReader
ConfigReader::parse(LineReader &in)
{
    ConfigReader reader;
    reader.source_ = in.source();
    while (in.next()) {
        const std::string_view line = in.line();
        const auto eq = line.find('=');
        if (eq == std::string_view::npos)
            in.fail("not key=value: '", line, "'");
        const std::string key(trimField(line.substr(0, eq)));
        if (key.empty())
            in.fail("empty key");
        if (const Entry *first = reader.find(key))
            in.fail("duplicate key '", key, "' (first on line ",
                    first->line, ")");
        reader.entries_.push_back(
            {key, std::string(trimField(line.substr(eq + 1))),
             in.at().line});
    }
    return reader;
}

ConfigReader
ConfigReader::fromString(const std::string &text,
                         const std::string &source)
{
    LineReader in = LineReader::fromText(text, source);
    return parse(in);
}

ConfigReader
ConfigReader::fromFile(const std::string &path)
{
    LineReader in(path);
    return parse(in);
}

const ConfigReader::Entry *
ConfigReader::find(const std::string &key) const
{
    for (const Entry &entry : entries_) {
        if (entry.key == key)
            return &entry;
    }
    return nullptr;
}

bool
ConfigReader::contains(const std::string &key) const
{
    return find(key) != nullptr;
}

std::string
ConfigReader::get(const std::string &key) const
{
    const Entry *entry = find(key);
    if (!entry)
        fatal("ConfigReader: missing key '", key, "'");
    return entry->value;
}

std::string
ConfigReader::getString(const std::string &key,
                        const std::string &fallback) const
{
    return contains(key) ? get(key) : fallback;
}

double
ConfigReader::getDouble(const std::string &key, double fallback) const
{
    return contains(key) ? at(key).number<double>(get(key), "'" + key + "'")
                         : fallback;
}

void
ConfigReader::set(const std::string &key, const std::string &value)
{
    // A programmatic override has no file line to point at.
    for (Entry &entry : entries_) {
        if (entry.key == key) {
            entry.value = value;
            entry.line = 0;
            return;
        }
    }
    entries_.push_back({key, value, 0});
}

SourceLine
ConfigReader::at(const std::string &key) const
{
    const Entry *entry = find(key);
    return {source_, entry ? entry->line : 0};
}

} // namespace litmus
