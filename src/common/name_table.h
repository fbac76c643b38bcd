/**
 * @file
 * Name tables: how a fixed set of values (an enum, a factory) is
 * spelled in what a user types and what the program prints. A table
 * is an array of {value, spelling} pairs; the first spelling listed
 * for a value is its canonical name, printed and listed in
 * diagnostics, and every spelling parses.
 */

#ifndef LITMUS_COMMON_NAME_TABLE_H
#define LITMUS_COMMON_NAME_TABLE_H

#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/line_reader.h"
#include "common/logging.h"

namespace litmus
{

/** One accepted spelling of a value. */
template <typename T>
struct Spelling
{
    T value;
    std::string_view name;
};

/** The canonical name of @p value, which must be in @p table. */
template <typename Table, typename T>
std::string_view
nameOf(const Table &table, const T &value)
{
    for (const auto &entry : table)
        if (entry.value == value)
            return entry.name;
    panic("nameOf: value missing from its name table");
}

/** One entry per value, the canonical one, in table order. */
template <typename Table>
auto
canonical(const Table &table)
{
    std::vector<std::decay_t<decltype(*std::begin(table))>> entries;
    for (const auto &entry : table)
        if (nameOf(table, entry.value) == entry.name)
            entries.push_back(entry);
    return entries;
}

/** @p names ", "-joined, as diagnostics and help text list them. */
template <typename Names>
std::string
joinNames(const Names &names)
{
    std::string out;
    for (const auto &name : names)
        out.append(out.empty() ? "" : ", ").append(name);
    return out;
}

/** The canonical names of @p table, joined. */
template <typename Table>
std::string
nameListing(const Table &table)
{
    std::vector<std::string_view> names;
    for (const auto &entry : canonical(table))
        names.push_back(entry.name);
    return joinNames(names);
}

/** The value @p text spells; any other text fails at @p at with
 *  "<prefix> '<text>' (known: <nameListing>)". */
template <typename Table>
auto
parseName(const Table &table, std::string_view text,
          std::string_view prefix, const SourceLine &at = {})
{
    for (const auto &entry : table)
        if (entry.name == text)
            return entry.value;
    at.fail(prefix, " '", text, "' (known: ", nameListing(table), ")");
}

} // namespace litmus

#endif // LITMUS_COMMON_NAME_TABLE_H
