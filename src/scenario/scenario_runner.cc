#include "scenario/scenario_runner.h"

#include <algorithm>
#include <ostream>

#include "common/logging.h"
#include "common/text_table.h"
#include "core/table_io.h"
#include "sim/machine_catalog.h"

namespace litmus::scenario
{

namespace
{

/** Output path for one type's profile: the plain path for a
 *  single-type fleet, "<stem>-<type><ext>" when several types are
 *  being written. */
std::string
profileOutPath(const std::string &path, const std::string &type,
               bool multiple)
{
    if (!multiple)
        return path;
    const auto slash = path.find_last_of('/');
    const auto dot = path.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + type;
    return path.substr(0, dot) + "-" + type + path.substr(dot);
}

} // namespace

ScenarioRunner::ScenarioRunner(ScenarioSpec spec)
    : spec_(std::move(spec))
{
    spec_.validate();
    pool_ = spec_.functionPool();
    traffic_ = makeTrafficModel(spec_.traffic);
    bindPricing();

    cfg_.fleet = spec_.fleet;
    cfg_.policy = spec_.policy;
    cfg_.functionPool = pool_;
    cfg_.seed = spec_.seed;
    cfg_.epoch = spec_.epoch;
    cfg_.keepAlive = spec_.keepAlive;
    cfg_.threads = spec_.threads;
    cfg_.drainCap = spec_.drainCap;
    cfg_.sharingFactor = spec_.sharingFactor;
    cfg_.probes = spec_.probes.value_or(!cfg_.discountModels.empty());
    cfg_.traffic = traffic_.get();
    cfg_.faults = spec_.fault;
    cfg_.validate();
}

ScenarioRunner::~ScenarioRunner() = default;

void
ScenarioRunner::bindPricing()
{
    const auto bind = [this](pricing::ProfileStore::ProfilePtr profile) {
        if (profile->machine.empty())
            fatal("scenario: profile has no machine name (legacy v1 "
                  "artifact?) — recalibrate to produce a v2 profile");
        if (cfg_.discountModels.contains(profile->machine))
            fatal("scenario: two profiles for machine type '",
                  profile->machine, "' — pass one per type");
        models_.push_back(
            std::make_unique<pricing::DiscountModel>(*profile));
        cfg_.discountModels[profile->machine] = models_.back().get();
        profiles_.push_back(std::move(profile));
    };

    for (const std::string &path : spec_.tables)
        bind(std::make_shared<const pricing::CalibrationProfile>(
            pricing::loadProfile(path)));

    if (spec_.calibrate) {
        for (const cluster::MachineGroup &group : spec_.fleet) {
            const std::string type =
                sim::MachineCatalog::get(group.machine).name;
            if (cfg_.discountModels.contains(type))
                continue; // a loaded profile wins
            if (spec_.calibrationLevels == 0) {
                if (!pricing::ProfileStore::instance().find(
                        "dedicated/" + type))
                    inform("scenario: calibrating ", type,
                           " (dedicated sweep)...");
                bind(pricing::ProfileStore::instance().dedicated(type));
                continue;
            }
            // Capped sweeps are memoized under their own key so a
            // coarse smoke run never poisons the full-depth cache.
            const unsigned cap = std::max(2u, spec_.calibrationLevels);
            const std::string key =
                "scenario/" + type + "/levels" + std::to_string(cap);
            if (!pricing::ProfileStore::instance().find(key))
                inform("scenario: calibrating ", type, " (<= ", cap,
                       " levels per generator)...");
            bind(pricing::ProfileStore::instance().getOrCalibrate(
                key, [&type, cap] {
                    auto ccfg = pricing::dedicatedCalibrationFor(
                        sim::MachineCatalog::get(type));
                    if (ccfg.levels.size() > cap)
                        ccfg.levels.resize(cap);
                    return pricing::calibrate(ccfg);
                }));
        }
    }

    if (!spec_.tablesOut.empty()) {
        if (profiles_.empty())
            fatal("scenario: tables_out needs profiles to write — "
                  "set calibrate=true or tables=");
        for (const auto &profile : profiles_) {
            const std::string out =
                profileOutPath(spec_.tablesOut, profile->machine,
                               profiles_.size() > 1);
            pricing::saveProfile(out, *profile);
            inform("scenario: profile for ", profile->machine,
                   " written to ", out);
        }
    }
}

const cluster::FleetReport &
ScenarioRunner::run()
{
    if (cluster_)
        fatal("ScenarioRunner::run called twice");
    cluster_ = std::make_unique<cluster::Cluster>(cfg_);
    return cluster_->run();
}

const cluster::Cluster &
ScenarioRunner::cluster() const
{
    if (!cluster_)
        fatal("ScenarioRunner::cluster: run() has not completed");
    return *cluster_;
}

void
printFleetReport(std::ostream &os, const cluster::FleetReport &report)
{
    TextTable table({"machine", "type", "dispatched", "cold", "warm",
                     "billed s", "commercial $", "litmus $",
                     "mean lat ms"});
    for (const cluster::MachineReport &m : report.machines) {
        table.addRow({std::to_string(m.index), m.type,
                      std::to_string(m.dispatched),
                      std::to_string(m.coldStarts),
                      std::to_string(m.warmStarts),
                      TextTable::num(m.billedCpuSeconds),
                      TextTable::num(m.commercialUsd, 6),
                      TextTable::num(m.litmusUsd, 6),
                      TextTable::num(1e3 * m.meanLatency)});
    }
    for (const cluster::TypeReport &t : report.types) {
        table.addRow({"type", t.type, std::to_string(t.dispatched),
                      std::to_string(t.coldStarts),
                      std::to_string(t.warmStarts),
                      TextTable::num(t.billedCpuSeconds),
                      TextTable::num(t.commercialUsd, 6),
                      TextTable::num(t.litmusUsd, 6),
                      TextTable::num(100 * t.discount(), 1) +
                          "% disc"});
    }
    table.addRow({"fleet", "", std::to_string(report.dispatched),
                  std::to_string(report.coldStarts),
                  std::to_string(report.warmStarts),
                  TextTable::num(report.billedCpuSeconds),
                  TextTable::num(report.commercialUsd, 6),
                  TextTable::num(report.litmusUsd, 6),
                  TextTable::num(1e3 * report.meanLatency)});
    table.print(os);

    os << "throughput " << TextTable::num(report.throughput(), 0)
       << " inv/s  cold-start rate "
       << TextTable::num(100 * report.coldStartRate(), 1)
       << "%  fleet discount "
       << TextTable::num(100 * report.discount(), 1) << "%  makespan "
       << TextTable::num(report.makespan) << " s  rejected "
       << report.rejectedMemory << "\n";

    // The chaos footer only appears when a fault campaign ran.
    if (report.crashes > 0 || report.killedInvocations > 0) {
        os << "crashes " << report.crashes << "  killed "
           << report.killedInvocations << "  retried "
           << report.retries << "  abandoned " << report.abandoned
           << "  lost " << TextTable::num(report.lostCpuSeconds)
           << " s  absorbed "
           << TextTable::num(report.absorbedCpuSeconds) << " s ($"
           << TextTable::num(report.absorbedUsd, 6) << ")\n";
    }

    // Scheduler-core footer: how the serving loop spent its barriers.
    // Diagnostic only — never part of the bit-identity contract.
    const cluster::SchedulerCounters &sched = report.sched;
    os << "scheduler barriers " << sched.barriers << " (elided "
       << sched.barriersElided
       << ")  idle quanta skipped " << sched.idleQuantaSkipped
       << "  events arrival " << sched.eventsArrival << " retry "
       << sched.eventsRetry << " fault " << sched.eventsFault
       << " keepalive " << sched.eventsKeepAlive << " progress "
       << sched.eventsProgress << "  machine visits "
       << sched.barrierMachineVisits << "\n";

    // Arrival-flow footer: how the traffic source fed the fleet.
    // Diagnostic only — never part of the bit-identity contract.
    const cluster::ArrivalCounters &flow = report.arrivalFlow;
    os << "arrivals " << flow.model << "  generated "
       << flow.generated << "  pulled "
       << flow.pulled << "  buffered max " << flow.bufferedMax
       << "\n";
}

} // namespace litmus::scenario
