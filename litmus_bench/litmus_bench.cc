/**
 * @file
 * litmus_bench: one workload per process, measured end to end and
 * layer by layer.
 *
 *     litmus_bench --workload=fleet_dense [--seed=1] [--seconds=20]
 *                  [--reps=3] [--scale=full|smoke] [--trace=0|1]
 *                  [--work-dir=DIR]
 *
 * Timed reps (each one sets the workload up from its spec, serves it
 * and checks the outputs) repeat until --reps are done and --seconds
 * have passed; the end-to-end metrics are their medians. Peak RSS is
 * read after the first rep, so each workload needs its own process.
 * fleet_dense serves on a min(4, nproc)-thread pool, every other
 * workload serially. With --trace=1 one more rep follows whose spans
 * are exported, then the unit-cost probes (unit_costs.h) and, for
 * fleet_dense, one serial rep for the pool's parallel efficiency;
 * together they give the per-layer metrics.
 *
 * The last line of stdout is one JSON object with every sample,
 * summary, count, check and span. run.py builds this binary, runs
 * each workload in a fresh process, checks the default-seed digests
 * and compares runs; see README.md.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common/arg_parser.h"
#include "common/logging.h"
#include "summary.h"
#include "unit_costs.h"
#include "workloads.h"

using namespace litmus;
using namespace litmus::bench;

namespace
{

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

/**
 * While alive, moves the thread that created it to the next allowed CPU
 * every 50 ms. On a shared virtual machine each CPU's speed depends on
 * what else runs on the physical core behind it, and the OS leaves a
 * busy thread on one CPU for seconds, so a rep's time depended on where
 * it landed. Rotating makes every rep sample every CPU: on a 4-CPU
 * host in a noisy period, moving every 50 ms instead of once per rep
 * cut the run-to-run spread of fleet_sparse from 43% to 9%. Threads
 * created meanwhile would inherit a single-CPU mask, so only serial
 * workloads rotate.
 */
class CpuRotation
{
  public:
    CpuRotation()
        : target_(static_cast<pid_t>(syscall(SYS_gettid))),
          cpus_(allowedCpus())
    {
        CPU_ZERO(&allowed_);
        for (const int cpu : cpus_)
            CPU_SET(cpu, &allowed_);
        if (cpus_.size() > 1)
            thread_ = std::thread([this] { rotate(); });
    }

    ~CpuRotation()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        thread_.join();
        sched_setaffinity(target_, sizeof(allowed_), &allowed_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    void rotate()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (std::size_t next = 0; !stop_; ++next) {
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[next % cpus_.size()], &one);
            sched_setaffinity(target_, sizeof(one), &one);
            wake_.wait_for(lock, std::chrono::milliseconds(50),
                           [this] { return stop_; });
        }
    }

    const pid_t target_;
    const std::vector<int> cpus_;
    cpu_set_t allowed_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

/** Peak resident set of this process so far, in MB (10^6 bytes). */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A number with all its digits; non-finite values become null. */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

std::string
jsonSummary(const Summary &s, const std::string &unit)
{
    return "{\"unit\": " + jsonString(unit) +
           ", \"n\": " + std::to_string(s.n) +
           ", \"median\": " + jsonNumber(s.median) +
           ", \"q1\": " + jsonNumber(s.q1) +
           ", \"q3\": " + jsonNumber(s.q3) +
           ", \"min\": " + jsonNumber(s.min) +
           ", \"max\": " + jsonNumber(s.max) + "}";
}

/** One per-layer metric. */
struct LayerMetric
{
    std::string name;
    double value;
    std::string unit;
};

double
valueOf(const Values &values, const std::string &name)
{
    for (const auto &[key, value] : values) {
        if (key == name)
            return value;
    }
    panic("litmus_bench: no value named '", name, "'");
}

std::string
countUnit(const std::string &name)
{
    if (name.ends_with("_frac"))
        return "frac";
    if (name.ends_with("running_threads"))
        return "threads";
    return "count";
}

/**
 * The per-layer metrics of a traced rep: its spans, the unit costs,
 * the outside-in time ledger (count x unit cost per layer, and the
 * share of the serve's pool-thread-seconds it explains), and the exact
 * counts.
 */
std::vector<LayerMetric>
layerMetrics(const Rep &traced, const Values &costs, double untracedServe,
             unsigned poolThreads, double parallelEff)
{
    std::vector<LayerMetric> out;
    for (const Span &span : traced.spans)
        out.push_back({span.name + "_s", span.dur, "s"});
    for (const auto &[name, ns] : costs)
        out.push_back({name, ns, "ns"});
    out.push_back(
        {"cluster.epoch_pool.parallel_eff", parallelEff, "frac"});

    const auto count = [&](const char *name) {
        return valueOf(traced.counts, name);
    };
    const auto cost = [&](const char *name) {
        return valueOf(costs, name) * 1e-9;
    };
    const double solves = count("sim.contention.solves");
    const double hits = count("sim.contention.memo_hits");
    // A full step's timed cost includes one fresh solve, which the
    // contention line attributes separately.
    const double stepOnly = std::max(
        0.0, cost("sim.engine.full_step_ns") - cost("sim.contention.solve_ns"));
    const std::vector<std::pair<std::string, double>> attributed = {
        {"sim.engine",
         count("sim.engine.replay_quanta") * cost("sim.engine.replay_ns") +
             count("sim.engine.full_steps") * stepOnly},
        {"sim.contention",
         (solves - hits) * cost("sim.contention.solve_ns") +
             hits * cost("sim.contention.memo_hit_ns")},
        {"cluster.dispatch",
         count("cluster.dispatched") * cost("cluster.dispatch.pick_ns")},
        {"cluster.epoch_pool",
         count("cluster.barriers") * cost("cluster.epoch_pool.barrier_ns")},
        {"traffic", count("traffic.pulled") * cost("traffic.pull_ns")},
        {"core.discount",
         count("core.discount.estimates") *
             cost("core.discount.estimate_ns")},
    };
    double explained = 0;
    for (const auto &[layer, seconds] : attributed) {
        out.push_back({layer + ".attributed_s", seconds, "s"});
        explained += seconds;
    }
    out.push_back({"ledger.coverage_frac",
                   explained / (poolThreads * traced.serveS), "frac"});
    out.push_back({"trace.overhead_frac",
                   traced.serveS / untracedServe - 1.0, "frac"});
    out.push_back({"core.discount.price_gap_pp", traced.priceGapPp, "pp"});
    for (const auto &[name, value] : traced.counts)
        out.push_back({name, value, countUnit(name)});
    return out;
}

/** Checks across reps: every rep must reproduce rep 1 exactly. */
void
checkAgainstFirst(const Rep &first, Rep &rep)
{
    if (rep.digest != first.digest || rep.counts != first.counts ||
        rep.priceGapPp != first.priceGapPp)
        rep.violations.push_back(
            "outputs or layer counts differ from rep 1");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("litmus_bench",
                   "Run one benchmark workload; the last stdout line is "
                   "its JSON result");
    args.addOption("workload",
                   "pricing_heavy | fleet_dense | fleet_sparse | azure_2h")
        .addOption("seed", "input seed", "1")
        .addOption("seconds", "minimum seconds of timed reps", "20")
        .addOption("reps", "minimum timed reps", "3")
        .addOption("scale", "full | smoke", "full")
        .addOption("trace", "1: add a traced rep and the layer probes",
                   "0")
        .addOption("work-dir", "directory for generated inputs",
                   "bench-out/litmus_bench.work");
    args.parseOrExit(argc, argv);

    const std::string name = args.get("workload");
    const std::string scale = args.get("scale");
    if (scale != "full" && scale != "smoke")
        fatal("litmus_bench: --scale must be full or smoke, got '", scale,
              "'");
    const long traceFlag = args.getInt("trace");
    if (traceFlag != 0 && traceFlag != 1)
        fatal("litmus_bench: --trace must be 0 or 1");
    const double seconds = args.getDouble("seconds");
    if (!(seconds >= 0))
        fatal("litmus_bench: --seconds must be >= 0");
    const auto minReps =
        static_cast<std::size_t>(args.getIntAtLeast("reps", 1));
    const auto nproc = static_cast<unsigned>(allowedCpus().size());

    WorkloadOptions options;
    options.seed = static_cast<std::uint64_t>(args.getIntAtLeast("seed", 0));
    options.scale = scale == "smoke" ? Scale::Smoke : Scale::Full;
    options.workDir = args.get("work-dir");
    const auto workload = makeWorkload(name, options);
    auto *const fleet = dynamic_cast<Fleet *>(workload.get());
    const unsigned poolThreads = fleet ? fleet->threads() : 1;
    // Pool workers would inherit the rotation's one-CPU mask.
    std::unique_ptr<CpuRotation> rotation;
    if (poolThreads == 1)
        rotation = std::make_unique<CpuRotation>();

    std::cout << "litmus_bench " << name << ": seed " << options.seed
              << ", " << scale << " scale, nproc " << nproc << "\n";

    std::vector<Rep> reps;
    double rssMb = 0;
    const double start = wallSeconds();
    while (reps.size() < minReps || wallSeconds() - start < seconds) {
        reps.push_back(workload->run());
        // One set-up and serve; later reps only add allocator churn.
        if (reps.size() == 1)
            rssMb = peakRssMb();
        Rep &rep = reps.back();
        checkAgainstFirst(reps.front(), rep);
        std::cout << "  rep " << reps.size() << ": setup " << rep.setupS
                  << " s, serve " << rep.serveS << " s, "
                  << static_cast<double>(rep.served) / rep.serveS
                  << " inv/s" << (rep.violations.empty() ? "" : ", FAILED")
                  << "\n";
    }

    std::vector<double> invPerS, setupS, serveS;
    for (const Rep &rep : reps) {
        invPerS.push_back(static_cast<double>(rep.served) / rep.serveS);
        setupS.push_back(rep.setupS);
        serveS.push_back(rep.serveS);
    }
    const Summary serve = Summary::of(serveS);

    std::vector<LayerMetric> layers;
    std::vector<Span> spans;
    if (traceFlag == 1) {
        const double origin = wallSeconds();
        reps.push_back(workload->run());
        // The probes start threads of their own.
        rotation.reset();
        checkAgainstFirst(reps.front(), reps.back());
        const Rep traced = reps.back();
        spans = traced.spans;
        const Values costs =
            measureUnitCosts(workload->sizing(), origin, spans);
        // Serial serve time over pool-thread-seconds of the pooled
        // serves; the serial rep must reproduce them exactly.
        double parallelEff = 1.0;
        if (poolThreads > 1) {
            const double begin = wallSeconds();
            reps.push_back(fleet->run(1));
            spans.push_back({"probe.serial_serve", begin - origin,
                             wallSeconds() - begin});
            checkAgainstFirst(reps.front(), reps.back());
            parallelEff = reps.back().serveS / (poolThreads * serve.median);
        }
        layers = layerMetrics(traced, costs, serve.median, poolThreads,
                              parallelEff);
    }

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> violations;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &rep = reps[i];
        attempted += rep.offered;
        failed += rep.violations.empty() ? rep.offered - rep.served
                                         : rep.offered;
        for (const std::string &v : rep.violations)
            violations.push_back("rep " + std::to_string(i + 1) + ": " + v);
    }
    for (const std::string &v : violations)
        std::cout << "  check failed: " << v << "\n";
    std::cout << "  " << reps.size() << " rep(s), " << attempted
              << " invocations attempted, " << failed << " failed\n";

    std::ostringstream json;
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(reps.front().digest));
    json << "{\"workload\": " << jsonString(name)
         << ", \"seed\": " << options.seed
         << ", \"scale\": " << jsonString(scale)
         << ", \"pool_threads\": " << poolThreads
         << ", \"nproc\": " << nproc
         << ", \"compiler\": " << jsonString(kCompiler)
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"digest\": " << jsonString(digest)
         << ", \"price_gap_pp\": " << jsonNumber(reps.front().priceGapPp)
         << ", \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i)
        json << (i ? ", " : "") << jsonString(violations[i]);
    json << "], \"reps\": [";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        json << (i ? ", " : "") << "{\"setup_s\": "
             << jsonNumber(reps[i].setupS)
             << ", \"serve_s\": " << jsonNumber(reps[i].serveS)
             << ", \"offered\": " << reps[i].offered
             << ", \"served\": " << reps[i].served << "}";
    }
    json << "], \"end_to_end\": {\"inv_per_s\": "
         << jsonSummary(Summary::of(invPerS), "1/s")
         << ", \"setup_s\": " << jsonSummary(Summary::of(setupS), "s")
         << ", \"peak_rss_mb\": " << jsonSummary(Summary::of({rssMb}), "MB")
         << "}, \"serve_s\": " << jsonSummary(serve, "s")
         << ", \"counts\": {";
    const Values &counts = reps.front().counts;
    for (std::size_t i = 0; i < counts.size(); ++i)
        json << (i ? ", " : "") << jsonString(counts[i].first) << ": "
             << jsonNumber(counts[i].second);
    json << "}, \"per_layer\": {";
    for (std::size_t i = 0; i < layers.size(); ++i)
        json << (i ? ", " : "") << jsonString(layers[i].name)
             << ": {\"value\": " << jsonNumber(layers[i].value)
             << ", \"unit\": " << jsonString(layers[i].unit) << "}";
    json << "}, \"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i)
        json << (i ? ", " : "") << "{\"name\": " << jsonString(spans[i].name)
             << ", \"start_s\": " << jsonNumber(spans[i].start)
             << ", \"dur_s\": " << jsonNumber(spans[i].dur) << "}";
    json << "]}";
    std::cout << json.str() << std::endl;
    return 0;
}
