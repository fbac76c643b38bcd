#include "core/table_io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "common/line_reader.h"
#include "common/logging.h"

namespace litmus::pricing
{

namespace
{

using workload::GeneratorKind;
using workload::Language;

/** A table row while its records are still being read. */
struct PendingRow
{
    int line = 0; // first record at this level
    std::map<Language, CongestionEntry> startups;
    std::optional<PerformanceEntry> reference;
};

/** The whitespace-separated fields of one record, checked against
 *  its shape as they are read. */
struct Record
{
    std::vector<std::string_view> fields;
    SourceLine at;
    const char *kind = "";

    /** Require exactly @p count fields after the record's keyword. */
    void
    expect(std::size_t count, const char *what)
    {
        kind = what;
        if (fields.size() > count + 1)
            at.fail("malformed ", kind, ": trailing token '",
                    fields[count + 1], "'");
        if (fields.size() < count + 1)
            at.fail("malformed ", kind, ": ", fields.size() - 1, " of ",
                    count, " fields");
    }

    double
    real(std::size_t i) const
    {
        const std::optional<double> value = parseNumber<double>(fields[i]);
        if (!value)
            at.fail("malformed ", kind, ": '", fields[i],
                    "' is not a finite number");
        return *value;
    }

    /** A stress level: a whole number that fits an unsigned. */
    unsigned
    level(std::size_t i) const
    {
        const std::optional<unsigned> value =
            parseNumber<unsigned>(fields[i]);
        if (!value)
            at.fail("malformed ", kind, ": level '", fields[i],
                    "' is not an integer in [0, ",
                    std::numeric_limits<unsigned>::max(), "]");
        return *value;
    }

    Language
    language(std::size_t i) const
    {
        return parseName(kLanguageTokens, fields[i], "unknown language", at);
    }

    GeneratorKind
    generator(std::size_t i) const
    {
        return parseName(kGeneratorTokens, fields[i], "unknown generator", at);
    }
};

/** Parse a profile from @p in. */
CalibrationProfile
load(LineReader &in)
{
    const std::string_view header = in.next() ? in.line() : "";
    if (header != "litmus-tables v1" && header != "litmus-tables v2")
        in.fail("bad header '", header,
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

    Record r;
    while (in.next()) {
        splitWords(in.line(), r.fields);
        r.at = in.at();
        const SourceLine &at = r.at;
        const std::string_view kind = r.fields[0];
        if (kind == "machine") {
            if (!v2)
                at.fail("'machine' record in a v1 file");
            r.expect(1, "machine record");
            out.machine = r.fields[1];
        } else if (kind == "baseline") {
            r.expect(5, "baseline");
            const ProbeReading base{r.real(2), r.real(3), r.real(4),
                                    r.real(5)};
            if (!base.valid())
                at.fail("malformed baseline: instructions must be "
                        "positive");
            const Language l = r.language(1);
            out.congestion.setBaseline(l, base);
            baselines.insert(l);
        } else if (kind == "solo") {
            if (!v2)
                at.fail("'solo' record in a v1 file");
            r.expect(3, "solo baseline");
            out.referenceSolo[std::string(r.fields[1])] =
                SoloBaseline{r.real(2), r.real(3)};
        } else if (kind == "congestion") {
            r.expect(7, "congestion row");
            const CongestionEntry entry{r.real(4), r.real(5), r.real(6),
                                        r.real(7)};
            const Language l = r.language(1);
            const unsigned level = r.level(3);
            PendingRow &row = pendingRow(r.generator(2), level, at.line);
            if (!row.startups.emplace(l, entry).second)
                at.fail("duplicate congestion row for ", r.fields[1], ' ',
                        r.fields[2], " level ", level);
        } else if (kind == "performance") {
            r.expect(5, "performance row");
            const PerformanceEntry entry{r.real(3), r.real(4), r.real(5)};
            const unsigned level = r.level(2);
            PendingRow &row = pendingRow(r.generator(1), level, at.line);
            if (row.reference)
                at.fail("duplicate performance row for ", r.fields[1],
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
            const SourceLine at{in.source(), p.line};
            CongestionTable::Row row;
            row.level = level;
            for (Language lang : workload::allLanguages()) {
                const auto entry = p.startups.find(lang);
                if (entry == p.startups.end())
                    at.fail("generator ", nameOf(kGeneratorTokens, gen),
                            " level ", level, " has no ",
                            nameOf(kLanguageTokens, lang),
                            " congestion row");
                row.startups.push_back(entry->second);
            }
            if (!p.reference)
                at.fail("generator ", nameOf(kGeneratorTokens, gen),
                        " level ", level, " has no performance row");
            row.reference = *p.reference;
            out.congestion.add(gen, std::move(row));
        }
    }

    // The discount model normalizes every language by its baseline
    // and fits a line per generator: refuse a profile it cannot use
    // here, where the file can still be named.
    const SourceLine whole{in.source(), 0};
    for (Language lang : workload::allLanguages()) {
        if (!baselines.contains(lang))
            whole.fail("no baseline for ",
                       nameOf(kLanguageTokens, lang));
    }
    for (GeneratorKind gen : kCalibrationGenerators) {
        const std::size_t levels = pending[gen].size();
        if (levels < 2)
            whole.fail("generator ", nameOf(kGeneratorTokens, gen),
                       " has ", levels,
                       " level(s), the discount model fits a line "
                       "through at least 2");
    }
    return out;
}

/** @p name as one record token: refuse a name with whitespace or
 *  '#', which the loader would split or cut as a comment. */
const std::string &
savedName(const char *record, const std::string &name)
{
    if (name.find_first_of(" \t\n\r#") != std::string::npos)
        fatal("saveProfile: ", record, " name '", name,
              "' contains whitespace or '#' and would not round-trip");
    return name;
}

} // namespace

void
saveProfile(std::ostream &os, const CalibrationProfile &profile)
{
    os << "litmus-tables v2\n";
    // max_digits10: a decimal round-trip reproduces the exact double,
    // so a reloaded profile prices bit-identically.
    os << std::setprecision(17);

    if (!profile.machine.empty())
        os << "machine " << savedName("machine", profile.machine) << '\n';

    const CongestionTable &table = profile.congestion;

    for (Language lang : workload::allLanguages()) {
        const ProbeReading &base = table.baseline(lang);
        os << "baseline " << nameOf(kLanguageTokens, lang) << ' '
           << base.privCpi << ' ' << base.sharedCpi << ' '
           << base.instructions << ' ' << base.machineL3MissPerUs << '\n';
    }

    for (const auto &[name, solo] : profile.referenceSolo) {
        os << "solo " << savedName("solo", name) << ' ' << solo.privCpi
           << ' ' << solo.sharedCpi << '\n';
    }

    for (Language lang : workload::allLanguages()) {
        for (GeneratorKind gen : kCalibrationGenerators) {
            for (const CongestionTable::Row &row : table.rows(gen)) {
                const CongestionEntry &e = row.startup(lang);
                os << "congestion " << nameOf(kLanguageTokens, lang)
                   << ' ' << nameOf(kGeneratorTokens, gen) << ' '
                   << row.level << ' '
                   << e.privSlowdown << ' ' << e.sharedSlowdown << ' '
                   << e.totalSlowdown << ' ' << e.l3MissPerUs << '\n';
            }
        }
    }

    for (GeneratorKind gen : kCalibrationGenerators) {
        for (const CongestionTable::Row &row : table.rows(gen)) {
            const PerformanceEntry &p = row.reference;
            os << "performance " << nameOf(kGeneratorTokens, gen) << ' '
               << row.level << ' ' << p.privSlowdown << ' '
               << p.sharedSlowdown << ' ' << p.totalSlowdown << '\n';
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
    LineReader in(is, "<tables>");
    return load(in);
}

CalibrationProfile
loadProfile(const std::string &path)
{
    LineReader in(path);
    return load(in);
}

} // namespace litmus::pricing
