#include "core/congestion_table.h"

#include "common/logging.h"
#include "common/regression.h"

namespace litmus::pricing
{

void
CongestionTable::setBaseline(Language lang, const ProbeReading &reading)
{
    if (!reading.valid())
        fatal("CongestionTable::setBaseline: invalid reading");
    baselines_[lang] = reading;
}

const ProbeReading &
CongestionTable::baseline(Language lang) const
{
    const auto it = baselines_.find(lang);
    if (it == baselines_.end())
        fatal("CongestionTable: no baseline for ",
              workload::languageName(lang));
    return it->second;
}

void
CongestionTable::add(GeneratorKind gen, Row row)
{
    if (row.startups.size() != workload::allLanguages().size())
        fatal("CongestionTable::add: ",
              nameOf(workload::kGeneratorNames, gen), " level ", row.level,
              " has ", row.startups.size(), " startup entries, want ",
              workload::allLanguages().size());
    std::vector<Row> &rows = rows_[gen];
    if (!rows.empty() && row.level <= rows.back().level)
        fatal("CongestionTable::add: levels must increase (", row.level,
              " after ", rows.back().level, ")");
    rows.push_back(std::move(row));
}

const std::vector<CongestionTable::Row> &
CongestionTable::rows(GeneratorKind gen) const
{
    const auto it = rows_.find(gen);
    if (it == rows_.end())
        fatal("CongestionTable: no series for ",
              nameOf(workload::kGeneratorNames, gen));
    return it->second;
}

CongestionEntry
CongestionTable::at(Language lang, GeneratorKind gen, double level) const
{
    const std::vector<Row> &r = rows(gen);
    if (level <= r.front().level)
        return r.front().startup(lang);
    for (std::size_t i = 1; i < r.size(); ++i) {
        if (level <= r[i].level) {
            const double lo = r[i - 1].level;
            const double t = (level - lo) / (r[i].level - lo);
            const CongestionEntry &a = r[i - 1].startup(lang);
            const CongestionEntry &b = r[i].startup(lang);
            CongestionEntry e;
            e.privSlowdown = lerp(a.privSlowdown, b.privSlowdown, t);
            e.sharedSlowdown = lerp(a.sharedSlowdown, b.sharedSlowdown, t);
            e.totalSlowdown = lerp(a.totalSlowdown, b.totalSlowdown, t);
            e.l3MissPerUs = lerp(a.l3MissPerUs, b.l3MissPerUs, t);
            return e;
        }
    }
    return r.back().startup(lang);
}

bool
CongestionTable::populated(GeneratorKind gen) const
{
    const auto it = rows_.find(gen);
    return it != rows_.end() && it->second.size() >= 2;
}

} // namespace litmus::pricing
