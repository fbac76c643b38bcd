#include "cluster/fault_plan.h"

#include <algorithm>

#include "common/line_reader.h"
#include "common/logging.h"
#include "common/rng.h"

namespace litmus::cluster
{

std::vector<ScriptedFault>
parseScriptedFaults(const std::string &key, const std::string &value,
                    const SourceLine &at)
{
    std::vector<ScriptedFault> out;
    for (const std::string &piece : splitNonEmpty(value, ',')) {
        ScriptedFault fault;
        const auto sign = piece.find('@');
        const std::string time = piece.substr(0, sign);
        const auto parsedTime = parseNumber<double>(time);
        if (!parsedTime || *parsedTime < 0)
            at.fail("'", key, "': bad fault time '", time, "' in '",
                    piece, "' (want <seconds>[@<machine>])");
        fault.at = *parsedTime;
        if (sign != std::string::npos) {
            const std::string machine = piece.substr(sign + 1);
            const auto parsedMachine = parseNumber<unsigned>(machine);
            if (!parsedMachine)
                at.fail("'", key, "': bad machine index '", machine,
                        "' in '", piece,
                        "' (want <seconds>[@<machine>])");
            fault.machine = *parsedMachine;
        }
        out.push_back(fault);
    }
    return out;
}

bool
FaultSpec::enabled() const
{
    return crashMtbf > 0 || !crashAt.empty() || slowMtbf > 0 ||
           !slowAt.empty() || blindMtbf > 0 || !blindAt.empty();
}

void
FaultSpec::validate() const
{
    if (crashMtbf < 0)
        fatal("fault.crash.mtbf must be >= 0 (0 disables crashes)");
    if ((crashMtbf > 0 || !crashAt.empty()) && restartDelay <= 0)
        fatal("fault.crash.restart must be positive when crashes are "
              "configured — a machine that never restarts can strand "
              "retries forever");
    if (slowMtbf < 0)
        fatal("fault.slow.mtbf must be >= 0 (0 disables slowdowns)");
    if ((slowMtbf > 0 || !slowAt.empty()) && slowDuration <= 0)
        fatal("fault.slow.duration must be positive when slowdown "
              "windows are configured");
    if (slowFactor <= 0 || slowFactor > 1)
        fatal("fault.slow.factor must be in (0, 1], got ", slowFactor);
    if (blindMtbf < 0)
        fatal("fault.blind.mtbf must be >= 0 (0 disables blindness)");
    if ((blindMtbf > 0 || !blindAt.empty()) && blindDuration <= 0)
        fatal("fault.blind.duration must be positive when blindness "
              "windows are configured");
    if (retry == RetryPolicy::RetryBackoff && retryMax < 2)
        fatal("fault.retry.max must be >= 2 under retry-backoff (the "
              "first dispatch counts as an attempt)");
    // The backoff doubles per attempt as a 64-bit shift; attempt 64
    // would shift past the width (undefined behavior).
    if (retryMax > 64)
        fatal("fault.retry.max must be <= 64, got ", retryMax);
    if (retryBackoff < 0)
        fatal("fault.retry.backoff must be >= 0");
}

std::uint64_t
deriveFaultSeed(const FaultSpec &spec, std::uint64_t scenarioSeed)
{
    if (spec.seed != 0)
        return spec.seed;
    // One SplitMix64 step of the scenario seed: deterministic, but a
    // different stream family than the traffic/jitter Rng, so the
    // fault schedule never consumes (or perturbs) traffic draws.
    std::uint64_t z = scenarioSeed + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace
{

/**
 * Generate one machine's window process: starts separated by an
 * exponential gap of the given mean measured from the previous end,
 * so windows on a machine never overlap themselves.
 */
void
generateWindows(Rng &rng, unsigned machine, Seconds mtbf,
                Seconds duration, FaultKind startKind,
                FaultKind endKind, double factor, Seconds horizon,
                std::vector<FaultEvent> &events)
{
    Seconds at = rng.exponential(mtbf);
    while (at < horizon) {
        events.push_back({at, startKind, machine, factor});
        const Seconds end = at + duration;
        events.push_back({end, endKind, machine, 1.0});
        at = end + rng.exponential(mtbf);
    }
}

} // namespace

FaultPlan
FaultPlan::compile(const FaultSpec &spec, unsigned machines,
                   Seconds horizon, std::uint64_t scenarioSeed)
{
    spec.validate();
    if (machines == 0)
        fatal("FaultPlan: zero machines");
    if (horizon < 0)
        fatal("FaultPlan: negative horizon");

    FaultPlan plan;
    if (!spec.enabled())
        return plan;

    const std::uint64_t seed = deriveFaultSeed(spec, scenarioSeed);
    for (unsigned m = 0; m < machines; ++m) {
        // Three seeds per machine, one per fault class: the Rng seeds
        // through SplitMix64, so adjacent seeds are independent
        // streams, and enabling one class never moves another's
        // timeline.
        if (spec.crashMtbf > 0) {
            Rng rng(seed + 3ull * m);
            // Crashes are measured between failures of a *running*
            // machine, so the next draw starts at the restart.
            generateWindows(rng, m, spec.crashMtbf, spec.restartDelay,
                            FaultKind::Crash, FaultKind::Restart, 1.0,
                            horizon, plan.events_);
        }
        if (spec.slowMtbf > 0) {
            Rng rng(seed + 3ull * m + 1);
            generateWindows(rng, m, spec.slowMtbf, spec.slowDuration,
                            FaultKind::SlowStart, FaultKind::SlowEnd,
                            spec.slowFactor, horizon, plan.events_);
        }
        if (spec.blindMtbf > 0) {
            Rng rng(seed + 3ull * m + 2);
            generateWindows(rng, m, spec.blindMtbf, spec.blindDuration,
                            FaultKind::BlindStart, FaultKind::BlindEnd,
                            1.0, horizon, plan.events_);
        }
    }

    const auto addScripted = [&](const std::vector<ScriptedFault> &list,
                                 const char *key, FaultKind startKind,
                                 FaultKind endKind, Seconds duration,
                                 double factor) {
        for (const ScriptedFault &fault : list) {
            if (fault.machine >= machines)
                fatal("FaultPlan: '", key, "' names machine ",
                      fault.machine, " but the fleet has ", machines,
                      " machines (indices 0..", machines - 1, ")");
            plan.events_.push_back(
                {fault.at, startKind, fault.machine, factor});
            plan.events_.push_back(
                {fault.at + duration, endKind, fault.machine, 1.0});
        }
    };
    addScripted(spec.crashAt, "fault.crash.at", FaultKind::Crash,
                FaultKind::Restart, spec.restartDelay, 1.0);
    addScripted(spec.slowAt, "fault.slow.at", FaultKind::SlowStart,
                FaultKind::SlowEnd, spec.slowDuration,
                spec.slowFactor);
    addScripted(spec.blindAt, "fault.blind.at", FaultKind::BlindStart,
                FaultKind::BlindEnd, spec.blindDuration, 1.0);

    // (time, machine, kind): FaultKind is declared in application
    // order, so a restart at t precedes a new crash at t.
    std::sort(plan.events_.begin(), plan.events_.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.machine != b.machine)
                      return a.machine < b.machine;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
    return plan;
}

} // namespace litmus::cluster
