/**
 * @file
 * Fault injection: declarative fault campaigns compiled into a
 * deterministic event schedule.
 *
 * A production FaaS fleet loses machines mid-invocation; the billing
 * and fairness guarantees are only credible if they hold through
 * those failures. A FaultSpec describes a fault campaign the same way
 * a TrafficSpec describes an arrival process — three independent
 * fault classes, each either a seeded stochastic process (mean time
 * between faults per machine) or a scripted list of one-shot events:
 *
 *  - crash  the machine dies with full state loss (in-flight
 *           invocations killed, warm containers gone) and restarts
 *           cold after a fixed delay;
 *  - slow   a transient degradation window (thermal throttling,
 *           co-tenant interference): the machine keeps serving but at
 *           a fraction of its clock;
 *  - blind  dispatcher blindness (network-partition style): the
 *           machine is up and finishes its work, but the dispatcher
 *           cannot route new arrivals to it.
 *
 * FaultPlan::compile turns the spec into one sorted event list before
 * the fleet starts serving, from an Rng seeded by fault.seed (derived
 * from the scenario seed when unset) — identical specs produce
 * identical fault timelines at any thread count, and each machine and
 * fault class draws from its own stream, so enabling slowdowns never
 * moves the crash schedule.
 *
 * What happens to the half-run invocation is policy, not accident:
 * RetryPolicy says whether killed invocations are re-dispatched, and
 * FaultBilling says who pays for the work the crash destroyed. The
 * billing-conservation invariant extends through failures: billed
 * work plus provider-absorbed loss equals all work performed.
 */

#ifndef LITMUS_CLUSTER_FAULT_PLAN_H
#define LITMUS_CLUSTER_FAULT_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/line_reader.h"
#include "common/name_table.h"
#include "common/units.h"

namespace litmus::cluster
{

/** What happens to an invocation killed by a machine crash. */
enum class RetryPolicy
{
    /** The invocation is lost; the platform reports a failure. */
    Drop,

    /** One immediate re-dispatch; a second crash drops it. */
    RetryOnce,

    /** Re-dispatch after fault.retry.backoff seconds, doubling per
     *  attempt, up to fault.retry.max attempts in total. */
    RetryBackoff,
};

/** The retry policies' spellings; the first per policy is its
 *  name. */
inline constexpr Spelling<RetryPolicy> kRetryPolicies[] = {
    {RetryPolicy::Drop, "drop"},
    {RetryPolicy::Drop, "none"},
    {RetryPolicy::RetryOnce, "retry-once"},
    {RetryPolicy::RetryOnce, "once"},
    {RetryPolicy::RetryBackoff, "retry-backoff"},
    {RetryPolicy::RetryBackoff, "backoff"},
};

/** Who pays for the partial work a crash destroyed. */
enum class FaultBilling
{
    /** The tenant is charged the commercial price for the cycles the
     *  killed invocation burned (cloud reality for most platforms). */
    TenantPays,

    /** The provider eats the loss: the burned cycles are never
     *  billed, and their commercial value is reported as absorbed
     *  revenue. */
    ProviderAbsorbs,
};

/** The billing modes' spellings; the first per mode is its name. */
inline constexpr Spelling<FaultBilling> kFaultBillings[] = {
    {FaultBilling::TenantPays, "tenant-pays"},
    {FaultBilling::TenantPays, "tenant"},
    {FaultBilling::ProviderAbsorbs, "provider-absorbs"},
    {FaultBilling::ProviderAbsorbs, "provider"},
};

/** One scripted (explicitly timed) fault. */
struct ScriptedFault
{
    Seconds at = 0;
    unsigned machine = 0;
};

/**
 * Parse a scripted-fault list: "time[@machine]" entries separated by
 * ',', e.g. "0.5@1,2.0". The machine defaults to 0. fatal() on
 * malformed entries, naming @p at; machine indices are range-checked
 * at compile.
 */
std::vector<ScriptedFault>
parseScriptedFaults(const std::string &key, const std::string &value,
                    const SourceLine &at = {});

/**
 * Declarative fault campaign. The scenario fault.* keys map
 * one-to-one (see ScenarioSpec::set); all-defaults means "no faults"
 * and the cluster skips the fault machinery entirely.
 */
struct FaultSpec
{
    /** Fault-schedule seed; 0 derives one from the scenario seed, so
     *  identical scenarios get identical fault timelines without
     *  sharing a stream with the traffic generator. */
    std::uint64_t seed = 0;

    /** @name Machine crash with state loss @{ */
    /** Mean time between crashes per machine (s); 0 disables the
     *  stochastic crash process. */
    Seconds crashMtbf = 0;

    /** Downtime until the crashed machine restarts (cold: no warm
     *  containers survive). Must be positive when crashes are on —
     *  machines always come back, so the fleet always drains. */
    Seconds restartDelay = 5.0;

    /** Scripted crashes (in addition to the stochastic process). */
    std::vector<ScriptedFault> crashAt;
    /** @} */

    /** @name Transient slowdown windows @{ */
    /** Mean time between slowdown windows per machine (s); 0
     *  disables the stochastic process. */
    Seconds slowMtbf = 0;

    /** Window length (s). */
    Seconds slowDuration = 2.0;

    /** Effective machine speed during a window, in (0, 1]: 0.5 runs
     *  the machine at half clock. */
    double slowFactor = 0.5;

    /** Scripted window starts. */
    std::vector<ScriptedFault> slowAt;
    /** @} */

    /** @name Dispatcher blindness windows @{ */
    /** Mean time between blindness windows per machine (s); 0
     *  disables the stochastic process. */
    Seconds blindMtbf = 0;

    /** Window length (s). */
    Seconds blindDuration = 2.0;

    /** Scripted window starts. */
    std::vector<ScriptedFault> blindAt;
    /** @} */

    /** @name Failure policy @{ */
    RetryPolicy retry = RetryPolicy::RetryOnce;

    /** Total dispatch attempts per invocation under RetryBackoff
     *  (the first dispatch counts; >= 2 to retry at all, <= 64). */
    unsigned retryMax = 3;

    /** First re-dispatch delay under RetryBackoff (s), doubling with
     *  every further attempt. */
    Seconds retryBackoff = 0.5;

    FaultBilling billing = FaultBilling::ProviderAbsorbs;
    /** @} */

    /** True when any fault source (stochastic or scripted) is
     *  configured; false lets the cluster skip fault handling. */
    bool enabled() const;

    /** fatal() on out-of-range parameters. */
    void validate() const;
};

/**
 * Event kinds, declared in their same-timestamp application order: a
 * machine restarting or a window ending at time t is processed before
 * a new fault starting at t.
 */
enum class FaultKind
{
    Restart,
    SlowEnd,
    BlindEnd,
    Crash,
    SlowStart,
    BlindStart,
};

/** One scheduled fault transition. */
struct FaultEvent
{
    Seconds at = 0;
    FaultKind kind = FaultKind::Crash;
    unsigned machine = 0;

    /** SlowStart only: the machine speed factor to apply. */
    double factor = 1.0;
};

/**
 * The compiled, deterministic fault schedule: every transition the
 * fleet will apply, sorted by (time, machine, kind). Start events are
 * generated inside [0, horizon); the matching restart / window-end
 * events may land past the horizon so every crash has its restart and
 * every window closes.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;

    /**
     * Compile @p spec for a fleet of @p machines over @p horizon
     * simulated seconds. @p scenarioSeed feeds the fault-seed
     * derivation when spec.seed is 0. fatal() on an invalid spec or a
     * scripted machine index outside the fleet.
     */
    static FaultPlan compile(const FaultSpec &spec, unsigned machines,
                             Seconds horizon,
                             std::uint64_t scenarioSeed);

    const std::vector<FaultEvent> &events() const { return events_; }

    bool empty() const { return events_.empty(); }

  private:
    std::vector<FaultEvent> events_;
};

/** The seed the plan actually draws from: spec.seed, or a SplitMix64
 *  step of the scenario seed when unset (exposed for tests). */
std::uint64_t deriveFaultSeed(const FaultSpec &spec,
                              std::uint64_t scenarioSeed);

} // namespace litmus::cluster

#endif // LITMUS_CLUSTER_FAULT_PLAN_H
