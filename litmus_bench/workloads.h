/**
 * @file
 * The four litmus_bench workloads, built only from the library's
 * public API.
 *
 * Each workload is chosen so that one group of layers does most of the
 * work while another is bypassed (see README.md for the table):
 *
 *  - pricing_heavy  Fig. 17's heavy-congestion pricing experiment: the
 *                   engine, contention solver, probes and discount
 *                   model run; no cluster layer does.
 *  - fleet_dense    16 busy machines with Litmus billing, served on a
 *                   min(4, nproc)-thread EpochPool: plan rebuilds,
 *                   contention-memo misses and the pool's barriers set
 *                   the run time.
 *  - fleet_sparse   1024 mostly idle machines: per-barrier and
 *                   per-machine work (dispatch over 1024 candidates,
 *                   idle elision) dominates, not the engine.
 *  - azure_2h       an Azure-dataset-shaped two-hour trace: streaming
 *                   ingest, long idle gaps, replay-dominated engines.
 *
 * A rep sets the workload up from its spec (calibration and traffic
 * model included), serves it, and checks the outputs. Layer counts are
 * read afterwards from public counters; nothing inside the library is
 * instrumented.
 */

#ifndef LITMUS_BENCH_WORKLOADS_H
#define LITMUS_BENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/dispatcher.h"
#include "core/discount_model.h"
#include "scenario/traffic_model.h"

namespace litmus::bench
{

/** Workload size: the measured one, or a seconds-long smoke test. */
enum class Scale
{
    Full,
    Smoke,
};

struct WorkloadOptions
{
    /** Input seed (arrivals, jitter, the experiment's population). */
    std::uint64_t seed = 1;
    Scale scale = Scale::Full;

    /** Directory for generated inputs (the azure CSV). */
    std::string workDir;
};

/** One timed span, in seconds from the start of its rep. */
struct Span
{
    std::string name;
    double start = 0;
    double dur = 0;
};

/** Named values in a fixed order. */
using Values = std::vector<std::pair<std::string, double>>;

/** Everything one rep produced. */
struct Rep
{
    /** Host seconds from spec to first invocation. */
    double setupS = 0;

    /** Host seconds serving (Cluster::run / runPricingExperiment). */
    double serveS = 0;

    std::vector<Span> spans;

    /** Invocations offered and served; pricing_heavy counts priced
     *  subject invocations. */
    std::uint64_t offered = 0;
    std::uint64_t served = 0;

    /** FNV-1a over the bit patterns of the output totals. */
    std::uint64_t digest = 0;

    /** |gmean Litmus - gmean ideal price| x 100 (pricing_heavy). */
    double priceGapPp = 0;

    /** Exact layer counts (every key of layerCountNames()). */
    Values counts;

    /** Failed output checks, empty when every check held. */
    std::vector<std::string> violations;
};

/** Inputs the unit-cost probes size themselves from. */
struct Sizing
{
    /** The arrival model the pull probe streams (pricing_heavy has
     *  none; it gets a Poisson stream over its co-runner pool). */
    scenario::TrafficSpec traffic;
    std::vector<const workload::FunctionSpec *> pool;
    std::uint64_t seed = 1;

    /** Dispatch snapshot count and policy. */
    unsigned machines = 1;
    cluster::DispatchPolicy policy = cluster::DispatchPolicy::LeastLoaded;

    /** EpochPool threads of the counted serve (1 = jobs run inline). */
    unsigned threads = 1;

    /** Busy hardware threads per stepped quantum. */
    unsigned runningThreads = 1;

    /** The workload's discount model; null when it prices nothing. */
    const pricing::DiscountModel *model = nullptr;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Set up from the spec, serve, and check one rep. */
    virtual Rep run() = 0;

    /** Probe sizes, from the last rep. */
    virtual Sizing sizing() const = 0;
};

/** Times the named steps of one rep (workloads.cc). */
class SpanClock;

/**
 * The three cluster workloads; they differ only in shape. fleet_dense
 * serves on min(4, nproc) EpochPool threads, the others serially.
 */
class Fleet final : public Workload
{
  public:
    Fleet(const std::string &name, const WorkloadOptions &options);
    ~Fleet() override;

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** One rep on threads() pool threads. */
    Rep run() override { return run(threads_); }

    /** One rep on @p threads pool threads. Every thread count must
     *  reproduce the same totals, which the rep checks. */
    Rep run(unsigned threads);

    Sizing sizing() const override;

    /** Pool threads of run(). */
    unsigned threads() const { return threads_; }

  private:
    double setUp(SpanClock &clock, unsigned threads,
                 std::unique_ptr<cluster::Cluster> &fleet);
    void readCounts(const cluster::Cluster &fleet, Values &counts);
    void check(const cluster::Cluster &fleet, Rep &rep) const;

    WorkloadOptions options_;
    cluster::ClusterConfig base_;
    scenario::TrafficSpec traffic_;
    bool priced_ = false;
    unsigned threads_ = 1;
    std::string csvPath_;
    std::uint64_t csvArrivals_ = 0;

    /** Borrowed by the cluster of the rep that made them. */
    std::unique_ptr<pricing::DiscountModel> model_;
    std::unique_ptr<scenario::TrafficModel> trafficModel_;

    std::unique_ptr<cluster::FleetReport> first_;
    unsigned runningThreads_ = 1;
};

/** CPUs this process may run on (nproc), in ascending order. */
std::vector<int> allowedCpus();

/** Workload names, in run order. */
const std::vector<std::string> &workloadNames();

/** The exact per-layer count keys every Rep carries, in order. */
const std::vector<std::string> &layerCountNames();

/** Build a workload (fatal() on an unknown name); generates its
 *  inputs, which is not part of any rep. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadOptions &options);

} // namespace litmus::bench

#endif // LITMUS_BENCH_WORKLOADS_H
