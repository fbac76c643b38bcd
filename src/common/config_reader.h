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
 */

#ifndef LITMUS_COMMON_CONFIG_READER_H
#define LITMUS_COMMON_CONFIG_READER_H

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace litmus
{

/** Parsed key=value configuration. */
class ConfigReader
{
  public:
    ConfigReader() = default;

    /**
     * Parse from text; fatal() on malformed lines. @p source names
     * the text's origin (a file path) in diagnostics; empty means
     * in-memory text.
     */
    static ConfigReader fromString(const std::string &text,
                                   const std::string &source = "");

    /** Parse from a file; fatal() when unreadable. The path becomes
     *  the reader's source(), so consumers can point diagnostics at
     *  file:line. */
    static ConfigReader fromFile(const std::string &path);

    /** True when the key exists. */
    bool contains(const std::string &key) const;

    /** Raw string value; fatal() when missing. */
    std::string get(const std::string &key) const;

    /** Typed lookups with defaults. fatal() on malformed values. */
    std::string getString(const std::string &key,
                          const std::string &fallback) const;
    long getInt(const std::string &key, long fallback) const;
    double getDouble(const std::string &key, double fallback) const;

    /** All keys, in file order (for validation sweeps). */
    const std::vector<std::string> &keys() const { return order_; }

    /** Set / override programmatically. */
    void set(const std::string &key, const std::string &value);

    /** Where this config was parsed from ("" = in-memory). */
    const std::string &source() const { return source_; }

    /** Line the key was (last) defined on; 0 when the key is unknown
     *  or was set programmatically. */
    int lineOf(const std::string &key) const;

    /**
     * "path:line" locator for one key's definition — "" when neither
     * a source nor a line is known, so callers can prefix
     * diagnostics unconditionally.
     */
    std::string where(const std::string &key) const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> order_;
    std::map<std::string, int> lines_;
    std::string source_;
};

} // namespace litmus

#endif // LITMUS_COMMON_CONFIG_READER_H
