/**
 * @file
 * Serialization of calibration profiles.
 *
 * Calibration is the expensive provider-side step; its output — the
 * CalibrationProfile — is a deployable artifact. This module
 * round-trips a whole profile through a line-oriented text format so
 * a fleet can calibrate once and load everywhere:
 *
 *     litmus-tables v2
 *     machine <name>
 *     baseline <lang> <privCpi> <sharedCpi> <instructions> <l3PerUs>
 *     solo <function> <privCpi> <sharedCpi>
 *     congestion <lang> <gen> <level> <priv> <shared> <total> <l3PerUs>
 *     performance <gen> <level> <priv> <shared> <total>
 *
 * The v1 format (no machine/solo records) still loads; such legacy
 * artifacts carry an empty machine name, which requireMachine treats
 * as a wildcard. Doubles are written with 17 significant digits, so a
 * save/load round-trip is bit-exact. Loading follows the shared input
 * rules of common/line_reader.h ('#' comments, blank lines skipped,
 * strict numbers, "path:line: message" errors); the stream overload
 * names its input "<tables>".
 */

#ifndef LITMUS_CORE_TABLE_IO_H
#define LITMUS_CORE_TABLE_IO_H

#include <iosfwd>
#include <string>

#include "common/name_table.h"
#include "core/calibration.h"

namespace litmus::pricing
{

/** The tokens that name a language in a record. */
inline constexpr Spelling<workload::Language> kLanguageTokens[] = {
    {workload::Language::Python, "python"},
    {workload::Language::NodeJs, "nodejs"},
    {workload::Language::Go, "go"},
};

/** The tokens that name a generator in a record. */
inline constexpr Spelling<workload::GeneratorKind> kGeneratorTokens[] = {
    {workload::GeneratorKind::CtGen, "ct"},
    {workload::GeneratorKind::MbGen, "mb"},
};

/** Serialize a whole profile (v2) to a stream; fatal() on a machine
 *  or solo name with whitespace or '#', which would not reload. */
void saveProfile(std::ostream &os, const CalibrationProfile &profile);

/** Serialize to a file; fatal() when unwritable. */
void saveProfile(const std::string &path,
                 const CalibrationProfile &profile);

/** Parse a profile (v1 or v2) from a stream; fatal() on malformed
 *  input. */
CalibrationProfile loadProfile(std::istream &is);

/** Parse a profile from a file; fatal() when unreadable. */
CalibrationProfile loadProfile(const std::string &path);

} // namespace litmus::pricing

#endif // LITMUS_CORE_TABLE_IO_H
