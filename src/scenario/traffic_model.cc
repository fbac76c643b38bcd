#include "scenario/traffic_model.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "scenario/azure_trace.h"
#include "workload/suite.h"

namespace litmus::scenario
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/** Shared stop rule: a model emits arrivals until the invocation
 *  count (when set) or the duration (when set) is exhausted. */
bool
wantMore(const TrafficSpec &spec, std::uint64_t count, Seconds at)
{
    if (spec.invocations > 0 && count >= spec.invocations)
        return false;
    if (spec.duration > 0 && at >= spec.duration)
        return false;
    return true;
}

/**
 * Expected end-of-arrivals for the generative models' horizonHint():
 * the configured duration, the expected span of the configured count
 * at the long-run mean rate, or whichever of the two limits bites
 * first when both are set. An estimate (the realized last arrival is
 * random), but identical between streaming and upfront consumption —
 * which is what the fault-plan horizon needs.
 */
Seconds
expectedSpan(const TrafficSpec &spec)
{
    const Seconds byCount =
        spec.invocations > 0 ? static_cast<double>(spec.invocations) /
                                   spec.arrivalsPerSecond
                             : 0;
    if (spec.duration > 0 && byCount > 0)
        return std::min(spec.duration, byCount);
    return spec.duration > 0 ? spec.duration : byCount;
}

/**
 * The classic open-loop source: per arrival, an exponential gap then a
 * uniform function index, drawn from one fork() of the arrival Rng.
 */
class PoissonStream final : public cluster::ArrivalStream
{
  public:
    PoissonStream(const TrafficSpec &spec, Rng &rng,
                  const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream("poisson"), spec_(spec), rng_(rng.fork()),
          pool_(pool)
    {
    }

  protected:
    bool produce(cluster::Invocation &out) override
    {
        if (spec_.invocations > 0 && emitted_ >= spec_.invocations)
            return false;
        at_ += rng_.exponential(1.0 / spec_.arrivalsPerSecond);
        if (spec_.duration > 0 && at_ >= spec_.duration)
            return false;
        out.arrival = at_;
        out.spec = pool_[rng_.below(pool_.size())];
        ++emitted_;
        return true;
    }

  private:
    TrafficSpec spec_;
    Rng rng_;
    std::vector<const workload::FunctionSpec *> pool_;
    Seconds at_ = 0;
    std::uint64_t emitted_ = 0;
};

class PoissonTraffic final : public TrafficModel
{
  public:
    explicit PoissonTraffic(TrafficSpec spec) : spec_(std::move(spec)) {}

    std::string name() const override { return "poisson"; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const override
    {
        return std::make_unique<PoissonStream>(spec_, rng, pool);
    }

    Seconds horizonHint() const override { return expectedSpan(spec_); }

  private:
    TrafficSpec spec_;
};

/**
 * Sinusoid-modulated rate, sampled by Lewis-Shedler thinning: draw
 * candidates from a homogeneous process at the peak rate and accept
 * each with probability rate(t)/peak. Exact for any bounded rate
 * function, and deterministic for a fixed Rng — one produce() call
 * loops over rejected candidates, so the draw sequence is identical
 * to the materialized era's single loop.
 */
class DiurnalStream final : public cluster::ArrivalStream
{
  public:
    DiurnalStream(const TrafficSpec &spec, double peak, Rng &rng,
                  const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream("diurnal"), spec_(spec), peak_(peak),
          rng_(rng.fork()), pool_(pool)
    {
    }

  protected:
    bool produce(cluster::Invocation &out) override
    {
        while (wantMore(spec_, emitted_, at_)) {
            at_ += rng_.exponential(1.0 / peak_);
            if (!wantMore(spec_, emitted_, at_))
                return false;
            if (rng_.uniform() * peak_ <= rateAt(at_)) {
                out.arrival = at_;
                out.spec = pool_[rng_.below(pool_.size())];
                ++emitted_;
                return true;
            }
        }
        return false;
    }

  private:
    double rateAt(Seconds t) const
    {
        return spec_.arrivalsPerSecond *
               (1.0 + spec_.diurnalAmplitude *
                          std::sin(2.0 * kPi *
                                   (t / spec_.diurnalPeriod +
                                    spec_.diurnalPhase)));
    }

    TrafficSpec spec_;
    double peak_;
    Rng rng_;
    std::vector<const workload::FunctionSpec *> pool_;
    Seconds at_ = 0;
    std::uint64_t emitted_ = 0;
};

class DiurnalTraffic final : public TrafficModel
{
  public:
    explicit DiurnalTraffic(TrafficSpec spec) : spec_(std::move(spec)) {}

    std::string name() const override { return "diurnal"; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const override
    {
        const double peak =
            spec_.arrivalsPerSecond * (1.0 + spec_.diurnalAmplitude);
        return std::make_unique<DiurnalStream>(spec_, peak, rng, pool);
    }

    Seconds horizonHint() const override { return expectedSpan(spec_); }

  private:
    TrafficSpec spec_;
};

/**
 * Two-state on/off MMPP. Holding times are exponential (mean burstOn
 * / burstOff); arrivals are Poisson at rateOn while on and rateOff
 * while off, with rateOn solved so the long-run mean rate equals
 * arrivalsPerSecond. Candidates falling past the state boundary are
 * discarded — valid because the Poisson process is memoryless. The
 * initial on-state holding time is drawn at open(), before any
 * arrival, exactly as the materialized generator drew it before its
 * loop.
 */
class BurstStream final : public cluster::ArrivalStream
{
  public:
    BurstStream(const TrafficSpec &spec, double rateOn, double rateOff,
                Rng &rng,
                const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream("burst"), spec_(spec), rateOn_(rateOn),
          rateOff_(rateOff), rng_(rng.fork()), pool_(pool)
    {
        stateEnd_ = rng_.exponential(spec_.burstOn);
    }

  protected:
    bool produce(cluster::Invocation &out) override
    {
        while (wantMore(spec_, emitted_, at_)) {
            const double rate = on_ ? rateOn_ : rateOff_;
            Seconds candidate = stateEnd_;
            if (rate > 0)
                candidate = at_ + rng_.exponential(1.0 / rate);
            if (candidate >= stateEnd_) {
                at_ = stateEnd_;
                on_ = !on_;
                stateEnd_ = at_ + rng_.exponential(on_ ? spec_.burstOn
                                                       : spec_.burstOff);
                continue;
            }
            at_ = candidate;
            if (spec_.duration > 0 && at_ >= spec_.duration)
                return false;
            out.arrival = at_;
            out.spec = pool_[rng_.below(pool_.size())];
            ++emitted_;
            return true;
        }
        return false;
    }

  private:
    TrafficSpec spec_;
    double rateOn_;
    double rateOff_;
    Rng rng_;
    std::vector<const workload::FunctionSpec *> pool_;
    bool on_ = true;
    Seconds at_ = 0;
    Seconds stateEnd_ = 0;
    std::uint64_t emitted_ = 0;
};

class BurstTraffic final : public TrafficModel
{
  public:
    explicit BurstTraffic(TrafficSpec spec) : spec_(std::move(spec))
    {
        rateOff_ = spec_.burstIdleFraction * spec_.arrivalsPerSecond;
        const Seconds cycle = spec_.burstOn + spec_.burstOff;
        rateOn_ = (spec_.arrivalsPerSecond * cycle -
                   rateOff_ * spec_.burstOff) /
                  spec_.burstOn;
    }

    std::string name() const override { return "burst"; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const override
    {
        return std::make_unique<BurstStream>(spec_, rateOn_, rateOff_,
                                             rng, pool);
    }

    Seconds horizonHint() const override { return expectedSpan(spec_); }

  private:
    TrafficSpec spec_;
    double rateOn_ = 0;
    double rateOff_ = 0;
};

/**
 * CSV replay as an incremental stream: each opened stream runs its
 * own TraceCsvReader, emitting one rescaled row per pull and sampling
 * the pool for rows without a function name — the file is never
 * resident. The row/duration caps apply during the read, so a capped
 * replay of a huge file stops parsing at the cap.
 */
class TraceStream final : public cluster::ArrivalStream
{
  public:
    TraceStream(const TrafficSpec &spec, Rng &rng,
                const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream("trace"), spec_(spec), rng_(rng.fork()),
          pool_(pool), reader_(spec_.tracePath)
    {
    }

  protected:
    bool produce(cluster::Invocation &out) override
    {
        if (spec_.invocations > 0 && emitted_ >= spec_.invocations)
            return false;
        TraceRow row;
        if (!reader_.next(row))
            return false;
        const Seconds at = row.arrival / spec_.traceRateScale;
        if (spec_.duration > 0 && at >= spec_.duration)
            return false;
        out.arrival = at;
        out.spec = row.spec ? row.spec : pool_[rng_.below(pool_.size())];
        ++emitted_;
        return true;
    }

  private:
    TrafficSpec spec_;
    Rng rng_;
    std::vector<const workload::FunctionSpec *> pool_;
    TraceCsvReader reader_;
    std::uint64_t emitted_ = 0;
};

/**
 * The trace model. Construction runs a validation prescan — an
 * O(1)-memory incremental read that stops at the row/duration caps —
 * so a malformed trace fails when the scenario is built, not mid-run,
 * and a capped replay of a huge file never reads past the cap. The
 * prescan also records the capped span (the fault-plan horizon) and
 * warns when the row cap bites.
 */
class TraceTraffic final : public TrafficModel
{
  public:
    explicit TraceTraffic(TrafficSpec spec) : spec_(std::move(spec))
    {
        TraceCsvReader reader(spec_.tracePath);
        TraceRow row;
        bool capped = false;
        while (reader.next(row)) {
            if (spec_.invocations > 0 && kept_ >= spec_.invocations) {
                capped = true;
                break;
            }
            const Seconds at = row.arrival / spec_.traceRateScale;
            if (spec_.duration > 0 && at >= spec_.duration)
                break;
            ++kept_;
            lastKept_ = at;
        }
        if (kept_ == 0)
            fatal("traffic trace '", spec_.tracePath,
                  "' contains no arrivals");
        if (capped) {
            // A cap that bites is worth a notice: a silently
            // truncated replay reads as "covered the trace". The
            // rows past the cap are never read, so the total is
            // unknown by design.
            warn("trace '", spec_.tracePath, "': replay capped at ",
                 kept_, " rows (invocations=", spec_.invocations,
                 "); rows past the cap left unread");
        }
    }

    std::string name() const override { return "trace"; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const override
    {
        return std::make_unique<TraceStream>(spec_, rng, pool);
    }

    /** The capped replay's exact last timestamp (prescanned). */
    Seconds horizonHint() const override { return lastKept_; }

  private:
    TrafficSpec spec_;
    std::size_t kept_ = 0;
    Seconds lastKept_ = 0;
};

} // namespace

void
TrafficSpec::validate() const
{
    if (model.empty())
        fatal("TrafficSpec: empty model name");
    // Replay models are bounded by their file, not by the stop knobs,
    // and their timestamps carry their own rate.
    const bool replay = model == "trace" || model == "azure";
    if (invocations == 0 && duration <= 0 && !replay)
        fatal("TrafficSpec: need a stop condition — set invocations "
              "or duration");
    // Non-finite knobs are poison, not extremes: an infinite
    // duration generates arrivals until memory runs out, and NaN is
    // false in every stop/ordering comparison.
    if (!std::isfinite(duration) || duration < 0)
        fatal("TrafficSpec: duration must be finite and >= 0, got ",
              duration);
    if (!replay &&
        (arrivalsPerSecond <= 0 || !std::isfinite(arrivalsPerSecond)))
        fatal("TrafficSpec: arrival rate must be positive and "
              "finite");
    if (diurnalPeriod <= 0 || !std::isfinite(diurnalPeriod))
        fatal("TrafficSpec: diurnal.period must be positive and "
              "finite");
    if (diurnalAmplitude < 0 || diurnalAmplitude > 1)
        fatal("TrafficSpec: diurnal.amplitude must be in [0, 1], got ",
              diurnalAmplitude);
    if (diurnalPhase < 0 || diurnalPhase >= 1)
        fatal("TrafficSpec: diurnal.phase must be in [0, 1), got ",
              diurnalPhase);
    if (burstOn <= 0 || burstOff <= 0 || !std::isfinite(burstOn) ||
        !std::isfinite(burstOff))
        fatal("TrafficSpec: burst.on and burst.off must be positive "
              "and finite");
    if (burstIdleFraction < 0 || burstIdleFraction > 1)
        fatal("TrafficSpec: burst.idle_fraction must be in [0, 1], "
              "got ", burstIdleFraction);
    if (model == "trace" && tracePath.empty())
        fatal("TrafficSpec: trace model needs trace.path");
    if (traceRateScale <= 0 || !std::isfinite(traceRateScale))
        fatal("TrafficSpec: trace.rate_scale must be positive and "
              "finite");
    if (model == "azure" && azurePath.empty())
        fatal("TrafficSpec: azure model needs azure.path");
    if (azureRateScale <= 0 || !std::isfinite(azureRateScale))
        fatal("TrafficSpec: azure.rate_scale must be positive and "
              "finite");
}

std::unique_ptr<TrafficModel>
makeTrafficModel(const TrafficSpec &spec)
{
    spec.validate();
    if (spec.model == "poisson")
        return std::make_unique<PoissonTraffic>(spec);
    if (spec.model == "diurnal")
        return std::make_unique<DiurnalTraffic>(spec);
    if (spec.model == "burst")
        return std::make_unique<BurstTraffic>(spec);
    if (spec.model == "trace")
        return std::make_unique<TraceTraffic>(spec);
    if (spec.model == "azure")
        return makeAzureTraceModel(spec);
    fatal("unknown traffic model '", spec.model,
          "' (known: azure, burst, diurnal, poisson, trace)");
}

struct TraceCsvReader::Impl
{
    std::string path;
    std::ifstream file;
    unsigned lineNo = 0;
    Seconds prev = 0;
    // One leading non-numeric row (after any comments) is tolerated
    // as the column header.
    bool headerAllowed = true;
};

TraceCsvReader::TraceCsvReader(std::string path)
    : impl_(std::make_unique<Impl>())
{
    impl_->path = std::move(path);
    impl_->file.open(impl_->path);
    if (!impl_->file)
        fatal("cannot read arrival trace '", impl_->path, "'");
}

TraceCsvReader::~TraceCsvReader() = default;

bool
TraceCsvReader::next(TraceRow &row)
{
    Impl &st = *impl_;
    std::string line;
    while (std::getline(st.file, line)) {
        ++st.lineNo;
        // Strip comments and surrounding whitespace.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const auto last = line.find_last_not_of(" \t\r");
        line = line.substr(first, last - first + 1);

        std::string stamp = line;
        std::string function;
        const auto comma = line.find(',');
        if (comma != std::string::npos) {
            stamp = line.substr(0, comma);
            const auto stampEnd = stamp.find_last_not_of(" \t");
            stamp = stampEnd == std::string::npos
                        ? ""
                        : stamp.substr(0, stampEnd + 1);
            function = line.substr(comma + 1);
            const auto fnFirst = function.find_first_not_of(" \t");
            function = fnFirst == std::string::npos
                           ? ""
                           : function.substr(
                                 fnFirst, function.find_last_not_of(
                                              " \t") - fnFirst + 1);
        }

        char *end = nullptr;
        // LITMUS-LINT-ALLOW(raw-parse): header detection needs strtod's partial-consumption position (consumed-nothing = header row), which parseDoubleStrict hides; the full-consumption + isfinite checks below are exactly the strict contract
        const double at = std::strtod(stamp.c_str(), &end);
        // strtod happily parses "nan"/"inf", and NaN slips past
        // every ordering comparison below — reject non-finite
        // timestamps as malformed.
        if (!end || *end != '\0' || stamp.empty() ||
            !std::isfinite(at)) {
            // The header row is one where the timestamp field is not
            // numeric at all; anything strtod makes partial sense of
            // ("nan", "0.5s") is a malformed data row, even first.
            if (st.headerAllowed && !stamp.empty() &&
                end == stamp.c_str()) {
                st.headerAllowed = false;
                continue;
            }
            fatal("trace '", st.path, "' line ", st.lineNo,
                  ": bad arrival timestamp '", stamp, "'");
        }
        st.headerAllowed = false;
        if (at < 0)
            fatal("trace '", st.path, "' line ", st.lineNo,
                  ": negative arrival time ", at);
        if (at < st.prev)
            fatal("trace '", st.path, "' line ", st.lineNo,
                  ": arrivals out of order (", at, " after ", st.prev,
                  ")");
        st.prev = at;

        row.arrival = at;
        // An unknown function name fatal()s with the suite listing.
        row.spec = function.empty()
                       ? nullptr
                       : &workload::functionByName(function);
        return true;
    }
    return false;
}

} // namespace litmus::scenario
