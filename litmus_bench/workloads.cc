#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/stats.h"
#include "core/calibration.h"
#include "core/experiment.h"
#include "core/profile_store.h"
#include "scenario/azure_trace.h"
#include "sim/machine_catalog.h"
#include "summary.h"
#include "workload/suite.h"

namespace litmus::bench
{

namespace
{

constexpr const char *kMachine = "cascade-5218";

/** FNV-1a over 64-bit words, byte by byte (little-endian order). */
class Digest
{
  public:
    void add(std::uint64_t word)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

} // namespace

/** Times named steps of one rep, relative to the rep's start. */
class SpanClock
{
  public:
    template <typename Fn>
    double span(const char *name, Fn &&fn)
    {
        const double begin = wallSeconds();
        fn();
        const double dur = wallSeconds() - begin;
        spans_.push_back({name, begin - start_, dur});
        return dur;
    }

    double elapsed() const { return wallSeconds() - start_; }

    std::vector<Span> take() { return std::move(spans_); }

  private:
    double start_ = wallSeconds();
    std::vector<Span> spans_;
};

namespace
{

Values
zeroCounts()
{
    Values counts;
    for (const std::string &name : layerCountNames())
        counts.emplace_back(name, 0.0);
    return counts;
}

void
setCount(Values &counts, const std::string &name, double value)
{
    for (auto &[key, slot] : counts) {
        if (key == name) {
            slot = value;
            return;
        }
    }
    panic("litmus_bench: no layer count named '", name, "'");
}

void
require(std::vector<std::string> &violations, bool ok, std::string what)
{
    if (!ok)
        violations.push_back(std::move(what));
}

/** |a - b| / |a|, exact zero only when both are zero. */
double
relativeError(double a, double b)
{
    if (a == 0.0)
        return b == 0.0 ? 0.0 : 1.0;
    return std::abs(a - b) / std::abs(a);
}

/**
 * Fig. 17 (heavy congestion): Method 2 sharing calibration, then 320
 * co-runners from the memory-intensive set pooled on 16 CPUs with the
 * test functions. One repetition per test function instead of the
 * figure's five, so several reps fit in one benchmark run; the
 * per-invocation work is the same.
 */
class PricingHeavy final : public Workload
{
  public:
    explicit PricingHeavy(const WorkloadOptions &options)
        : options_(options)
    {
        const bool smoke = options.scale == Scale::Smoke;
        // The figure benches' sharingCalibration(): 50 functions churn
        // over CPUs 0-4, the generators stress the cores behind them.
        calibration_.machine = sim::MachineCatalog::get(kMachine);
        calibration_.sharingFunctions = 50;
        calibration_.sharingCpus = {0, 1, 2, 3, 4};
        calibration_.generatorFirstCpu = 5;
        calibration_.levels.clear();
        const unsigned headroom = calibration_.machine.hwThreads() - 5;
        for (unsigned level = 2; level <= headroom && level <= 26;
             level += 4)
            calibration_.levels.push_back(level);
        if (smoke)
            calibration_.levels.resize(2);

        experiment_.machine = calibration_.machine;
        experiment_.coRunners = smoke ? 32 : 320;
        experiment_.layoutPooled(16);
        experiment_.coRunnerPool = workload::memoryIntensiveSet();
        experiment_.repetitions = 1;
        experiment_.warmup = smoke ? 0.05 : 0.5;
        experiment_.seed = options.seed;
        if (smoke) {
            const auto tests = workload::testSet();
            experiment_.subjects.assign(tests.begin(), tests.begin() + 3);
        }
    }

    Rep run() override
    {
        Rep rep;
        rep.counts = zeroCounts();
        SpanClock clock;
        clock.span("setup.calibrate", [&] {
            model_ = std::make_unique<pricing::DiscountModel>(
                pricing::calibrate(calibration_));
        });
        pricing::ExperimentConfig cfg;
        clock.span("setup.traffic", [&] { cfg = experiment_; });
        rep.setupS = clock.elapsed();
        pricing::ExperimentResult result;
        rep.serveS = clock.span("run.serve", [&] {
            result = pricing::runPricingExperiment(cfg, *model_);
        });
        rep.spans = clock.take();

        const std::size_t subjects = cfg.subjects.empty()
                                         ? workload::testSet().size()
                                         : cfg.subjects.size();
        rep.offered = subjects * cfg.repetitions;
        Digest digest;
        std::vector<double> litmus, ideal;
        bool finite = true;
        for (const pricing::FunctionRow &row : result.rows) {
            rep.served += row.invocations;
            digest.add(row.litmusPrice);
            digest.add(row.idealPrice);
            litmus.push_back(row.litmusPrice);
            ideal.push_back(row.idealPrice);
            finite = finite && std::isfinite(row.litmusPrice) &&
                     std::isfinite(row.idealPrice) &&
                     row.litmusPrice > 0 && row.idealPrice > 0;
        }
        digest.add(result.gmeanLitmusPrice);
        digest.add(result.gmeanIdealPrice);
        rep.digest = digest.value();
        rep.priceGapPp =
            100.0 * std::abs(result.gmeanLitmusPrice -
                             result.gmeanIdealPrice);
        setCount(rep.counts, "core.discount.estimates",
                 static_cast<double>(rep.served));

        require(rep.violations, result.rows.size() == subjects,
                "one price row per test function");
        require(rep.violations, rep.served == rep.offered,
                "every subject invocation priced");
        require(rep.violations, finite,
                "prices finite and positive");
        require(rep.violations,
                !litmus.empty() &&
                    gmean(litmus) == result.gmeanLitmusPrice &&
                    gmean(ideal) == result.gmeanIdealPrice,
                "suite gmeans match the rows");
        return rep;
    }

    Sizing sizing() const override
    {
        Sizing s;
        // No arrival stream here: the pull probe times a Poisson
        // stream over the co-runner pool instead.
        s.traffic.arrivalsPerSecond = 1000.0;
        s.traffic.invocations = 20000;
        s.pool = experiment_.coRunnerPool;
        s.seed = options_.seed;
        // 320 co-runners keep all 16 pooled CPUs busy.
        s.runningThreads = 16;
        s.model = model_.get();
        return s;
    }

  private:
    WorkloadOptions options_;
    pricing::CalibrationConfig calibration_;
    pricing::ExperimentConfig experiment_;
    std::unique_ptr<pricing::DiscountModel> model_;
};

std::uint64_t
digestOf(const cluster::FleetReport &r)
{
    Digest d;
    for (const std::uint64_t count :
         {r.arrivals, r.dispatched, r.rejectedMemory, r.completions,
          r.coldStarts, r.warmStarts, r.abandoned})
        d.add(count);
    for (const double total :
         {r.billedCpuSeconds, r.commercialUsd, r.litmusUsd, r.meanLatency,
          r.makespan})
        d.add(total);
    return d.value();
}

} // namespace

Fleet::Fleet(const std::string &name, const WorkloadOptions &options)
    : options_(options)
{
    const bool smoke = options.scale == Scale::Smoke;
    base_.seed = options.seed;
    if (name == "fleet_dense") {
        // fig22's 500/s per machine on 16 machines, Litmus billing.
        base_.fleet = {{kMachine, 16}};
        base_.policy = cluster::DispatchPolicy::WarmthAware;
        threads_ = std::min<unsigned>(
            4, static_cast<unsigned>(allowedCpus().size()));
        traffic_.arrivalsPerSecond = 8000.0;
        traffic_.invocations = smoke ? 400 : 20000;
        priced_ = true;
    } else if (name == "fleet_sparse") {
        // About one arrival per machine per second.
        base_.fleet = {{kMachine, 1024}};
        base_.policy = cluster::DispatchPolicy::LeastLoaded;
        traffic_.arrivalsPerSecond = 1000.0;
        traffic_.invocations = smoke ? 600 : 36000;
    } else if (name == "azure_2h") {
        base_.fleet = {{kMachine, 16}};
        base_.policy = cluster::DispatchPolicy::WarmthAware;
        scenario::AzureTraceGenSpec gen;
        gen.functions = smoke ? 500 : 10000;
        gen.minutes = smoke ? 30 : 120;
        gen.invocationsPerMinute = 20.0;
        gen.seed = options.seed;
        std::filesystem::create_directories(options.workDir);
        csvPath_ = options.workDir + "/azure_2h-seed" +
                   std::to_string(options.seed) + ".csv";
        csvArrivals_ = scenario::writeAzureShapedCsv(csvPath_, gen);
        traffic_.model = "azure";
        traffic_.azurePath = csvPath_;
        traffic_.invocations = 0; // the whole file
    } else {
        panic("litmus_bench: no fleet workload '", name, "'");
    }
}

Fleet::~Fleet()
{
    if (!csvPath_.empty()) {
        std::error_code ignored;
        std::filesystem::remove(csvPath_, ignored);
    }
}

Rep
Fleet::run(unsigned threads)
{
    Rep rep;
    rep.counts = zeroCounts();
    SpanClock clock;
    std::unique_ptr<cluster::Cluster> fleet;
    rep.setupS = setUp(clock, threads, fleet);
    rep.serveS = clock.span("run.serve", [&] { fleet->run(); });
    rep.spans = clock.take();
    const cluster::FleetReport &r = fleet->report();
    rep.offered = r.arrivals;
    rep.served = r.completions;
    rep.digest = digestOf(r);
    readCounts(*fleet, rep.counts);
    check(*fleet, rep);
    if (!first_) {
        first_ = std::make_unique<cluster::FleetReport>(r);
    } else {
        require(rep.violations, cluster::identicalTotals(r, *first_),
                "fleet totals identical to rep 1");
    }
    return rep;
}

Sizing
Fleet::sizing() const
{
    Sizing s;
    s.traffic = traffic_;
    s.pool = base_.functionPool;
    s.seed = options_.seed;
    s.machines = base_.totalMachines();
    s.policy = base_.policy;
    s.threads = threads_;
    s.runningThreads = runningThreads_;
    s.model = model_.get();
    return s;
}

/** Calibrate (from a cleared ProfileStore), build the traffic model and
 *  the cluster; returns the set-up seconds. */
double
Fleet::setUp(SpanClock &clock, unsigned threads,
             std::unique_ptr<cluster::Cluster> &fleet)
{
    cluster::ClusterConfig cfg = base_;
    cfg.threads = threads;
    clock.span("setup.calibrate", [&] {
        pricing::ProfileStore::instance().clear();
        if (!priced_)
            return;
        model_ = std::make_unique<pricing::DiscountModel>(
            *pricing::ProfileStore::instance().dedicated(kMachine));
        cfg.discountModels[kMachine] = model_.get();
        cfg.probes = true;
    });
    clock.span("setup.traffic", [&] {
        trafficModel_ = scenario::makeTrafficModel(traffic_);
        cfg.traffic = trafficModel_.get();
    });
    clock.span("setup.cluster", [&] {
        fleet = std::make_unique<cluster::Cluster>(cfg);
    });
    return clock.elapsed();
}

void
Fleet::readCounts(const cluster::Cluster &fleet, Values &counts)
{
    const cluster::FleetReport &r = fleet.report();
    double quanta = 0, replay = 0, solves = 0, hits = 0;
    double busySamples = 0, busySum = 0, records = 0;
    for (unsigned m = 0; m < r.machines.size(); ++m) {
        const sim::EngineStats &st = fleet.engine(m).stats();
        quanta += st.quanta.value();
        replay += st.ffQuanta.value();
        solves += st.solves.value();
        hits += st.solveMemoHits.value();
        const OnlineStats &busy = st.runningThreads.accumulator();
        busySamples += static_cast<double>(busy.count());
        busySum += busy.mean() * static_cast<double>(busy.count());
        records += static_cast<double>(fleet.ledger(m).records().size());
    }
    const double busy = busySamples > 0 ? busySum / busySamples : 0;
    runningThreads_ = std::max(1u, static_cast<unsigned>(std::lround(busy)));
    const auto share = [](double part, double whole) {
        return whole > 0 ? part / whole : 0.0;
    };
    const auto count = [](std::uint64_t n) {
        return static_cast<double>(n);
    };
    setCount(counts, "sim.engine.quanta", quanta);
    setCount(counts, "sim.engine.replay_quanta", replay);
    setCount(counts, "sim.engine.full_steps", quanta - replay);
    setCount(counts, "sim.engine.replay_frac", share(replay, quanta));
    setCount(counts, "sim.engine.running_threads", busy);
    setCount(counts, "sim.contention.solves", solves);
    setCount(counts, "sim.contention.memo_hits", hits);
    setCount(counts, "sim.contention.memo_hit_frac", share(hits, solves));
    setCount(counts, "cluster.barriers", count(r.sched.barriers));
    setCount(counts, "cluster.barriers_elided",
             count(r.sched.barriersElided));
    setCount(counts, "cluster.idle_quanta_skipped",
             count(r.sched.idleQuantaSkipped));
    setCount(counts, "cluster.events_keepalive",
             count(r.sched.eventsKeepAlive));
    setCount(counts, "cluster.dispatched", count(r.dispatched));
    setCount(counts, "cluster.warm_frac",
             share(count(r.warmStarts), count(r.dispatched)));
    setCount(counts, "traffic.pulled", count(r.arrivalFlow.pulled));
    setCount(counts, "traffic.buffered_max",
             count(r.arrivalFlow.bufferedMax));
    setCount(counts, "core.billing.records", records);
    // Probes ride on cold invocations, and each probed invocation is
    // priced through one discount estimate.
    setCount(counts, "core.discount.estimates",
             priced_ ? count(r.coldStarts) : 0.0);
}

void
Fleet::check(const cluster::Cluster &fleet, Rep &rep) const
{
    const cluster::FleetReport &r = fleet.report();
    auto &v = rep.violations;
    require(v,
            r.completions + r.abandoned + r.rejectedMemory ==
                r.arrivals,
            "completions + abandoned + rejected == arrivals");
    const std::uint64_t expected =
        csvPath_.empty() ? traffic_.invocations : csvArrivals_;
    require(v, r.arrivals == expected,
            "every generated arrival served");
    require(v,
            relativeError(r.billedCpuSeconds + r.absorbedCpuSeconds,
                          r.sumMachineBilledSeconds() +
                              r.sumMachineAbsorbedSeconds()) <= 1e-6,
            "fleet billing equals the per-machine sums");

    double seconds = 0, commercial = 0, litmus = 0;
    unsigned badEngines = 0;
    for (unsigned m = 0; m < r.machines.size(); ++m) {
        for (const pricing::BillRecord &rec :
             fleet.ledger(m).records()) {
            seconds += rec.cpuSeconds;
            commercial += rec.commercialUsd;
            litmus += rec.litmusUsd;
        }
        // Quantum conservation: every quantum an engine lived
        // through was stepped or idle-elided, every machine covered
        // the same fleet grid, and the clock matches the covered
        // quanta up to the drift of that many quantum additions.
        const sim::Engine &engine = fleet.engine(m);
        const auto ticks = static_cast<double>(engine.tickCount());
        const double covered = ticks * engine.quantum();
        const double drift =
            ticks * covered * std::numeric_limits<double>::epsilon() +
            1e-9;
        if (engine.stats().quanta.value() +
                    engine.stats().skippedQuanta.value() !=
                ticks ||
            r.machines[m].quanta != ticks ||
            engine.tickCount() != fleet.engine(0).tickCount() ||
            std::abs(engine.now() - covered) > drift)
            ++badEngines;
    }
    require(v, badEngines == 0,
            std::to_string(badEngines) +
                " engine(s) break quantum conservation");
    require(v,
            relativeError(r.billedCpuSeconds, seconds) <= 1e-6 &&
                relativeError(r.commercialUsd, commercial) <= 1e-6 &&
                relativeError(r.litmusUsd, litmus) <= 1e-6,
            "fleet billing equals the ledger records");
}

std::vector<int>
allowedCpus()
{
    std::vector<int> cpus;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed))
                cpus.push_back(cpu);
        }
    }
    if (cpus.empty())
        cpus.push_back(0);
    return cpus;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "pricing_heavy", "fleet_dense", "fleet_sparse", "azure_2h"};
    return names;
}

const std::vector<std::string> &
layerCountNames()
{
    static const std::vector<std::string> names = {
        "sim.engine.quanta",
        "sim.engine.replay_quanta",
        "sim.engine.full_steps",
        "sim.engine.replay_frac",
        "sim.engine.running_threads",
        "sim.contention.solves",
        "sim.contention.memo_hits",
        "sim.contention.memo_hit_frac",
        "cluster.barriers",
        "cluster.barriers_elided",
        "cluster.idle_quanta_skipped",
        "cluster.events_keepalive",
        "cluster.dispatched",
        "cluster.warm_frac",
        "traffic.pulled",
        "traffic.buffered_max",
        "core.billing.records",
        "core.discount.estimates",
    };
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadOptions &options)
{
    if (name == "pricing_heavy")
        return std::make_unique<PricingHeavy>(options);
    for (const std::string &known : workloadNames()) {
        if (name == known)
            return std::make_unique<Fleet>(name, options);
    }
    fatal("litmus_bench: unknown workload '", name, "'");
}

} // namespace litmus::bench
