/**
 * @file
 * The discount model (Section 6, Step 3; Figures 9 and 10).
 *
 * Built from the congestion and performance tables, the model holds,
 * per language and per traffic generator:
 *
 *  - linear fits mapping startup component slowdowns to reference
 *    component slowdowns (Figure 9), and
 *  - logarithmic fits relating the machine L3 miss rate to the startup
 *    total slowdown (Figure 10a).
 *
 * At runtime a Litmus test yields the startup slowdown plus the
 * observed L3 miss rate; the model inverts the log fits to find where
 * between the CT-Gen and MB-Gen extremes the machine sits, blends the
 * two linear predictions logarithmically, and emits per-component
 * charging rates R = 1 / predicted_slowdown.
 */

#ifndef LITMUS_CORE_DISCOUNT_MODEL_H
#define LITMUS_CORE_DISCOUNT_MODEL_H

#include <map>

#include "common/regression.h"
#include "core/calibration.h"

namespace litmus::pricing
{

/** Time components the model prices separately. */
enum class Component
{
    Private,
    Shared,
    Total,
};

/** Result of one discount estimation. */
struct DiscountEstimate
{
    /** Charging rates in (0, 1]; price = R * T per component. */
    double rPrivate = 1.0;
    double rShared = 1.0;

    /** Predicted reference slowdowns behind the rates. */
    double predictedPriv = 1.0;
    double predictedShared = 1.0;
    double predictedTotal = 1.0;

    /** 0 = CT-Gen-like congestion, 1 = MB-Gen-like. */
    double blendWeight = 0.0;

    /** The observed startup slowdowns the estimate started from. */
    ProbeSlowdown observed;
};

/** The calibrated Litmus discount model. */
class DiscountModel
{
  public:
    using Language = workload::Language;
    using GeneratorKind = workload::GeneratorKind;

    /**
     * Fit the model from a calibration profile — the normal path.
     * The profile's machine type is retained and enforced wherever
     * the model prices a concrete machine (requireMachine).
     */
    explicit DiscountModel(const CalibrationProfile &profile);

    /**
     * Fit from loose tables (synthetic-table tests and ablations).
     * The machine type is left empty, which matches any machine.
     * Requires both generators populated in both tables for every
     * language.
     */
    DiscountModel(const CongestionTable &congestion,
                  const PerformanceTable &performance);

    /** Machine type the backing profile was calibrated on ("" =
     *  loose tables, matches anything). */
    const std::string &machine() const { return machine_; }

    /** fatal() when this model's profile was calibrated on a
     *  different machine type than @p machine_name. */
    void requireMachine(const std::string &machine_name) const;

    /**
     * Estimate discounts from one Litmus test.
     *
     * @param reading        the runtime probe reading
     * @param lang           language of the probed startup
     * @param sharing_factor Method 1 calibration: expected T_private
     *        inflation from temporal sharing (1 = dedicated cores).
     *        The observed private slowdown is deflated by this factor
     *        before the congestion lookup, and the factor is refunded
     *        in the private charging rate.
     */
    DiscountEstimate estimate(const ProbeReading &reading, Language lang,
                              double sharing_factor = 1.0) const;

    /** Startup baseline the runtime probes compare against. */
    const ProbeReading &baseline(Language lang) const;

    /** Figure 9 fits: startup slowdown -> reference slowdown. */
    const LinearFit &perfFit(Language lang, GeneratorKind gen,
                             Component comp) const;

    /** Figure 10a fits: machine L3 miss rate -> startup slowdown. */
    const LogFit &l3Fit(Language lang, GeneratorKind gen) const;

  private:
    struct PerLangGen
    {
        LinearFit priv;
        LinearFit shared;
        LinearFit total;
        LogFit l3;
        double minTotal = 1.0;
        double maxTotal = 1.0;
    };

    using Key = std::pair<Language, GeneratorKind>;

    const PerLangGen &fits(Language lang, GeneratorKind gen) const;

    std::map<Key, PerLangGen> fits_;
    std::map<Language, ProbeReading> baselines_;
    std::string machine_;
};

} // namespace litmus::pricing

#endif // LITMUS_CORE_DISCOUNT_MODEL_H
