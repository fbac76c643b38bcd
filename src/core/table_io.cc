#include "core/table_io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"

namespace litmus::pricing
{

namespace
{

using workload::GeneratorKind;
using workload::Language;

/** One input line, for diagnostics: "path:line: ..." for a file,
 *  "loadProfile: ... on line N" for a bare stream. Line 0 stands for
 *  the whole input: "path: ..." or "loadProfile: ...". */
struct Where
{
    const std::string &source;
    int line;

    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        if (line == 0)
            fatal(source.empty() ? "loadProfile" : source, ": ",
                  std::forward<Args>(args)...);
        if (source.empty())
            fatal("loadProfile: ", std::forward<Args>(args)...,
                  " on line ", line);
        fatal(source, ':', line, ": ", std::forward<Args>(args)...);
    }
};

const char *
langToken(Language lang)
{
    return lang == Language::Python
               ? "python"
               : (lang == Language::NodeJs ? "nodejs" : "go");
}

Language
langFromToken(const std::string &token, const Where &at)
{
    if (token == "python")
        return Language::Python;
    if (token == "nodejs")
        return Language::NodeJs;
    if (token == "go")
        return Language::Go;
    at.fail("unknown language '", token, "'");
}

const char *
genToken(GeneratorKind gen)
{
    return gen == GeneratorKind::CtGen ? "ct" : "mb";
}

GeneratorKind
genFromToken(const std::string &token, const Where &at)
{
    if (token == "ct")
        return GeneratorKind::CtGen;
    if (token == "mb")
        return GeneratorKind::MbGen;
    at.fail("unknown generator '", token, "'");
}

/** Finish one record: fatal() when a field failed to parse or a
 *  token is left over. */
void
requireComplete(std::istringstream &fields, const char *record,
                const Where &at)
{
    if (!fields)
        at.fail("malformed ", record);
    std::string extra;
    if (fields >> extra)
        at.fail("malformed ", record, ": trailing token '", extra, "'");
}

/** A stress level: a whole number that fits an unsigned. */
unsigned
levelFromToken(const std::string &token, const char *record,
               const Where &at)
{
    const std::optional<long> level = parseLongStrict(token);
    constexpr long kMax = std::numeric_limits<unsigned>::max();
    if (!level || *level < 0 || *level > kMax)
        at.fail("malformed ", record, ": level '", token,
                "' is not an integer in [0, ", kMax, "]");
    return static_cast<unsigned>(*level);
}

/** A table row while its records are still being read. */
struct PendingRow
{
    int line = 0; // first record at this level
    std::map<Language, CongestionEntry> startups;
    std::optional<PerformanceEntry> reference;
};

/** Parse a profile; @p source names the input in diagnostics ("" for
 *  a bare stream). */
CalibrationProfile
load(std::istream &is, const std::string &source)
{
    std::string header;
    if (!std::getline(is, header) ||
        (header != "litmus-tables v1" && header != "litmus-tables v2"))
        Where{source, 1}.fail("bad header '", header,
                              "' (want litmus-tables v1 | v2)");
    const bool v2 = header == "litmus-tables v2";

    CalibrationProfile out;
    std::set<Language> baselines;
    std::map<GeneratorKind, std::map<unsigned, PendingRow>> pending;
    const auto pendingRow = [&](GeneratorKind gen, unsigned level,
                                int line) -> PendingRow & {
        PendingRow &row = pending[gen][level];
        if (row.line == 0)
            row.line = line;
        return row;
    };

    std::string line;
    int lineNo = 1;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        const Where at{source, lineNo};
        std::istringstream fields(line);
        std::string kind;
        fields >> kind;
        if (kind == "machine") {
            if (!v2)
                at.fail("'machine' record in a v1 file");
            fields >> out.machine;
            requireComplete(fields, "machine record", at);
        } else if (kind == "baseline") {
            std::string lang;
            ProbeReading base;
            fields >> lang >> base.privCpi >> base.sharedCpi >>
                base.instructions >> base.machineL3MissPerUs;
            requireComplete(fields, "baseline", at);
            if (!base.valid())
                at.fail("malformed baseline: instructions must be "
                        "positive");
            const Language l = langFromToken(lang, at);
            out.congestion.setBaseline(l, base);
            baselines.insert(l);
        } else if (kind == "solo") {
            if (!v2)
                at.fail("'solo' record in a v1 file");
            std::string name;
            SoloBaseline solo;
            fields >> name >> solo.privCpi >> solo.sharedCpi;
            requireComplete(fields, "solo baseline", at);
            out.referenceSolo[name] = solo;
        } else if (kind == "congestion") {
            std::string lang, gen, level;
            CongestionEntry entry;
            fields >> lang >> gen >> level >> entry.privSlowdown >>
                entry.sharedSlowdown >> entry.totalSlowdown >>
                entry.l3MissPerUs;
            requireComplete(fields, "congestion row", at);
            const Language l = langFromToken(lang, at);
            PendingRow &row =
                pendingRow(genFromToken(gen, at),
                           levelFromToken(level, "congestion row", at),
                           lineNo);
            if (!row.startups.emplace(l, entry).second)
                at.fail("duplicate congestion row for ", lang, ' ', gen,
                        " level ", level);
        } else if (kind == "performance") {
            std::string gen, level;
            PerformanceEntry entry;
            fields >> gen >> level >> entry.privSlowdown >>
                entry.sharedSlowdown >> entry.totalSlowdown;
            requireComplete(fields, "performance row", at);
            PendingRow &row = pendingRow(
                genFromToken(gen, at),
                levelFromToken(level, "performance row", at), lineNo);
            if (row.reference)
                at.fail("duplicate performance row for ", gen,
                        " level ", level);
            row.reference = entry;
        } else {
            at.fail("unknown record '", kind, "'");
        }
    }

    // Every level needs a row from each language and the reference:
    // the model fits one against the other level by level.
    for (const auto &[gen, rows] : pending) {
        for (const auto &[level, p] : rows) {
            const Where at{source, p.line};
            CongestionTable::Row row;
            row.level = level;
            for (Language lang : workload::allLanguages()) {
                const auto entry = p.startups.find(lang);
                if (entry == p.startups.end())
                    at.fail("generator ", genToken(gen), " level ",
                            level, " has no ", langToken(lang),
                            " congestion row");
                row.startups.push_back(entry->second);
            }
            if (!p.reference)
                at.fail("generator ", genToken(gen), " level ", level,
                        " has no performance row");
            row.reference = *p.reference;
            out.congestion.add(gen, std::move(row));
        }
    }

    // The discount model normalizes every language by its baseline
    // and fits a line per generator: refuse a profile it cannot use
    // here, where the file can still be named.
    const Where whole{source, 0};
    for (Language lang : workload::allLanguages()) {
        if (!baselines.contains(lang))
            whole.fail("no baseline for ", langToken(lang));
    }
    for (GeneratorKind gen : kCalibrationGenerators) {
        const std::size_t levels = pending[gen].size();
        if (levels < 2)
            whole.fail("generator ", genToken(gen), " has ", levels,
                       " level(s), the discount model fits a line "
                       "through at least 2");
    }
    return out;
}

} // namespace

void
saveProfile(std::ostream &os, const CalibrationProfile &profile)
{
    os << "litmus-tables v2\n";
    // max_digits10: a decimal round-trip reproduces the exact double,
    // so a reloaded profile prices bit-identically.
    os << std::setprecision(17);

    if (!profile.machine.empty()) {
        // The record is whitespace-tokenized on load; a name with
        // spaces would silently truncate there, so refuse it here.
        if (profile.machine.find_first_of(" \t\n\r") !=
            std::string::npos)
            fatal("saveProfile: machine name '", profile.machine,
                  "' contains whitespace and would not round-trip");
        os << "machine " << profile.machine << '\n';
    }

    const CongestionTable &table = profile.congestion;

    for (Language lang : workload::allLanguages()) {
        const ProbeReading &base = table.baseline(lang);
        os << "baseline " << langToken(lang) << ' ' << base.privCpi
           << ' ' << base.sharedCpi << ' ' << base.instructions << ' '
           << base.machineL3MissPerUs << '\n';
    }

    for (const auto &[name, solo] : profile.referenceSolo) {
        os << "solo " << name << ' ' << solo.privCpi << ' '
           << solo.sharedCpi << '\n';
    }

    for (Language lang : workload::allLanguages()) {
        for (GeneratorKind gen : kCalibrationGenerators) {
            for (const CongestionTable::Row &row : table.rows(gen)) {
                const CongestionEntry &e = row.startup(lang);
                os << "congestion " << langToken(lang) << ' '
                   << genToken(gen) << ' ' << row.level << ' '
                   << e.privSlowdown << ' ' << e.sharedSlowdown << ' '
                   << e.totalSlowdown << ' ' << e.l3MissPerUs << '\n';
            }
        }
    }

    for (GeneratorKind gen : kCalibrationGenerators) {
        for (const CongestionTable::Row &row : table.rows(gen)) {
            const PerformanceEntry &p = row.reference;
            os << "performance " << genToken(gen) << ' ' << row.level
               << ' ' << p.privSlowdown << ' ' << p.sharedSlowdown << ' '
               << p.totalSlowdown << '\n';
        }
    }
}

void
saveProfile(const std::string &path, const CalibrationProfile &profile)
{
    std::ofstream out(path);
    if (!out)
        fatal("saveProfile: cannot write '", path, "'");
    saveProfile(out, profile);
}

CalibrationProfile
loadProfile(std::istream &is)
{
    return load(is, "");
}

CalibrationProfile
loadProfile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("loadProfile: cannot open '", path, "'");
    return load(in, path);
}

} // namespace litmus::pricing
