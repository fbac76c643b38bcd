/**
 * @file
 * Key=value configuration reader for machine overrides.
 *
 * Providers tune the simulator's machine model per fleet; a flat
 * key=value format (one entry per line, '#' comments) keeps those
 * tweaks out of recompiles:
 *
 *     # my-fleet.conf
 *     cores = 48
 *     l3_capacity_mib = 60
 *     mem_service_rate = 2.4
 *
 * Lines follow the shared rules of common/line_reader.h; a key given
 * twice is an error naming both lines.
 */

#ifndef LITMUS_COMMON_CONFIG_READER_H
#define LITMUS_COMMON_CONFIG_READER_H

#include <string>
#include <vector>

#include "common/line_reader.h"

namespace litmus
{

/** Parsed key=value configuration. */
class ConfigReader
{
  public:
    /** One key = value definition. */
    struct Entry
    {
        std::string key;
        std::string value;

        /** Line it was defined on; 0 when set programmatically. */
        int line = 0;
    };

    ConfigReader() = default;

    /** Parse from text; fatal() on malformed lines. @p source names
     *  the text in diagnostics. */
    static ConfigReader fromString(const std::string &text,
                                   const std::string &source = "<config>");

    /** Parse from a file; fatal() when unreadable. The path becomes
     *  the reader's source(). */
    static ConfigReader fromFile(const std::string &path);

    /** True when the key exists. */
    bool contains(const std::string &key) const;

    /** Raw string value; fatal() when missing. */
    std::string get(const std::string &key) const;

    /** Typed lookups with defaults. fatal() on malformed values. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    double getDouble(const std::string &key, double fallback) const;

    /** Every definition, in file order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Set / override programmatically. */
    void set(const std::string &key, const std::string &value);

    /** Where this config was parsed from. */
    const std::string &source() const { return source_; }

    /** Where @p key was defined: its line, or line 0 (the whole
     *  input) when it is unknown or was set programmatically. */
    SourceLine at(const std::string &key) const;

  private:
    static ConfigReader parse(LineReader &in);

    const Entry *find(const std::string &key) const;

    std::vector<Entry> entries_;
    std::string source_;
};

} // namespace litmus

#endif // LITMUS_COMMON_CONFIG_READER_H
