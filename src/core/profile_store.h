/**
 * @file
 * Process-wide memoized store of calibration profiles.
 *
 * Calibration is the expensive provider-side step, and before this
 * store every bench, test, and fleet run re-swept the same machine
 * from scratch. The store calibrates each machine type at most once
 * per process (thread-safe: concurrent requests for the same key wait
 * for the first calibration instead of duplicating it) and hands out
 * shared immutable profiles, mirroring how a provider calibrates a
 * hardware generation once and deploys the artifact fleet-wide.
 *
 * Each calibration runs its stress cells in parallel on its own
 * EpochPool (see calibrate()); the profile is the same at any thread
 * count, so a stored profile never depends on the host it ran on.
 */

#ifndef LITMUS_CORE_PROFILE_STORE_H
#define LITMUS_CORE_PROFILE_STORE_H

#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.h"
#include "core/calibration.h"

namespace litmus::pricing
{

class ProfileStore
{
  public:
    using ProfilePtr = std::shared_ptr<const CalibrationProfile>;

    /** The process-wide store. */
    static ProfileStore &instance();

    /**
     * Profile for a catalog machine type under the standard
     * dedicated-core sweep (dedicatedCalibrationFor), calibrated on
     * first use and cached for the life of the process.
     */
    ProfilePtr dedicated(const std::string &machine_name);

    /**
     * Memoize an arbitrary calibration: returns the cached profile
     * for @p key, or runs @p produce (outside the store lock, exactly
     * once even under concurrency) and caches its result.
     */
    ProfilePtr getOrCalibrate(
        const std::string &key,
        const std::function<CalibrationProfile()> &produce);

    /** Insert or replace a profile (deserialized artifacts). */
    void put(const std::string &key, CalibrationProfile profile);

    /** Cached profile for @p key, or nullptr. Never calibrates. */
    ProfilePtr find(const std::string &key) const;

    /** Drop every cached profile (tests). */
    void clear();

  private:
    ProfileStore() = default;

    mutable Mutex mutex_;

    /** Key -> eventually-ready profile. The shared_future is stored
     *  (not the value) so late arrivals during a calibration block on
     *  it rather than re-calibrating; calibrations themselves run
     *  outside the lock, so mutex_ only ever guards map surgery. */
    std::map<std::string, std::shared_future<ProfilePtr>> profiles_
        LITMUS_GUARDED_BY(mutex_);
};

} // namespace litmus::pricing

#endif // LITMUS_CORE_PROFILE_STORE_H
