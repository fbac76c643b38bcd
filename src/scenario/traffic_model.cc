#include "scenario/traffic_model.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
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
    static constexpr const char *kModel = "poisson";

    PoissonStream(const TrafficSpec &spec, Rng &rng,
                  const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream(kModel), spec_(spec), rng_(rng.fork()),
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
    static constexpr const char *kModel = "diurnal";

    DiurnalStream(const TrafficSpec &spec, Rng &rng,
                  const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream(kModel), spec_(spec),
          peak_(spec.arrivalsPerSecond * (1.0 + spec.diurnalAmplitude)),
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
    static constexpr const char *kModel = "burst";

    BurstStream(const TrafficSpec &spec, Rng &rng,
                const std::vector<const workload::FunctionSpec *> &pool)
        : ArrivalStream(kModel), spec_(spec), rng_(rng.fork()),
          pool_(pool)
    {
        rateOff_ = spec_.burstIdleFraction * spec_.arrivalsPerSecond;
        const Seconds cycle = spec_.burstOn + spec_.burstOff;
        rateOn_ = (spec_.arrivalsPerSecond * cycle -
                   rateOff_ * spec_.burstOff) /
                  spec_.burstOn;
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
    double rateOn_ = 0;
    double rateOff_ = 0;
    Rng rng_;
    std::vector<const workload::FunctionSpec *> pool_;
    bool on_ = true;
    Seconds at_ = 0;
    Seconds stateEnd_ = 0;
    std::uint64_t emitted_ = 0;
};

/** A generative model: opens a fresh @p Stream over its spec, named
 *  by the stream, with the expected span as its horizon. */
template <typename Stream>
class GenerativeTraffic final : public TrafficModel
{
  public:
    explicit GenerativeTraffic(TrafficSpec spec) : spec_(std::move(spec))
    {
    }

    std::string name() const override { return Stream::kModel; }

    std::unique_ptr<cluster::ArrivalStream>
    open(Rng &rng,
         const std::vector<const workload::FunctionSpec *> &pool)
        const override
    {
        return std::make_unique<Stream>(spec_, rng, pool);
    }

    Seconds horizonHint() const override { return expectedSpan(spec_); }

  private:
    TrafficSpec spec_;
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
            SourceLine{spec_.tracePath, 0}.fail("contains no arrivals");
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

namespace
{

template <typename Model>
std::unique_ptr<TrafficModel>
make(const TrafficSpec &spec)
{
    return std::make_unique<Model>(spec);
}

} // namespace

const Spelling<TrafficFactory> kTrafficModels[5] = {
    {&makeAzureTraceModel, "azure"},
    {&make<GenerativeTraffic<BurstStream>>, "burst"},
    {&make<GenerativeTraffic<DiurnalStream>>, "diurnal"},
    {&make<GenerativeTraffic<PoissonStream>>, "poisson"},
    {&make<TraceTraffic>, "trace"},
};

std::unique_ptr<TrafficModel>
makeTrafficModel(const TrafficSpec &spec)
{
    spec.validate();
    const TrafficFactory factory =
        parseName(kTrafficModels, spec.model, "unknown traffic model");
    return factory(spec);
}

namespace
{

/** A first-row timestamp field that cannot start a number: only such
 *  a row is taken as the column header ("+1.0", "nan" and "0.5s" are
 *  data rows, parsed or refused). */
bool
headerStamp(std::string_view stamp)
{
    if (stamp.empty() || !std::isalpha(static_cast<unsigned char>(stamp[0])))
        return false;
    std::string head(stamp.substr(0, 3));
    for (char &c : head)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return head != "inf" && head != "nan";
}

} // namespace

bool
TraceCsvReader::next(TraceRow &row)
{
    while (in_.next()) {
        const bool headerAllowed = std::exchange(headerAllowed_, false);
        splitFields(in_.line(), ',', fields_);
        const std::string_view stamp = fields_[0];
        const std::optional<double> at = parseNumber<double>(stamp);
        if (!at) {
            if (headerAllowed && headerStamp(stamp))
                continue;
            in_.fail("bad arrival timestamp '", stamp, "'");
        }
        if (fields_.size() > 2)
            in_.fail("expected <seconds>[,<function>], got ",
                     fields_.size(), " fields");
        if (*at < 0)
            in_.fail("negative arrival time ", *at);
        if (*at < prev_)
            in_.fail("arrivals out of order (", *at, " after ", prev_,
                     ")");
        prev_ = *at;

        row.arrival = *at;
        row.spec = nullptr;
        if (fields_.size() == 2 && !fields_[1].empty()) {
            row.spec = workload::findFunction(fields_[1]);
            if (!row.spec)
                in_.fail("unknown function '", fields_[1], "'");
        }
        return true;
    }
    return false;
}

} // namespace litmus::scenario
