#include "core/profile_store.h"

namespace litmus::pricing
{

ProfileStore &
ProfileStore::instance()
{
    static ProfileStore store;
    return store;
}

ProfileStore::ProfilePtr
ProfileStore::dedicated(const std::string &machine_name)
{
    // Resolve outside getOrCalibrate so an unknown name fails fast
    // with the catalog message instead of mid-calibration.
    const sim::MachineConfig machine =
        sim::MachineCatalog::get(machine_name);
    return getOrCalibrate("dedicated/" + machine.name, [&machine] {
        return calibrate(dedicatedCalibrationFor(machine));
    });
}

ProfileStore::ProfilePtr
ProfileStore::getOrCalibrate(
    const std::string &key,
    const std::function<CalibrationProfile()> &produce)
{
    std::promise<ProfilePtr> promise;
    std::shared_future<ProfilePtr> future;
    bool owner = false;
    {
        MutexLock lock(&mutex_);
        const auto it = profiles_.find(key);
        if (it != profiles_.end()) {
            future = it->second;
        } else {
            future = promise.get_future().share();
            profiles_.emplace(key, future);
            owner = true;
        }
    }
    if (!owner) {
        // Another thread owns (or finished) this calibration; wait.
        return future.get();
    }
    // This thread inserted the entry: calibrate outside the lock so
    // other keys stay available meanwhile. If produce() throws, the
    // exception reaches current waiters but the entry is dropped, so
    // later requests retry instead of hitting a poisoned future.
    try {
        ProfilePtr profile =
            std::make_shared<const CalibrationProfile>(produce());
        promise.set_value(profile);
        return profile;
    } catch (...) {
        promise.set_exception(std::current_exception());
        MutexLock lock(&mutex_);
        profiles_.erase(key);
        throw;
    }
}

void
ProfileStore::put(const std::string &key, CalibrationProfile profile)
{
    std::promise<ProfilePtr> ready;
    ready.set_value(
        std::make_shared<const CalibrationProfile>(std::move(profile)));
    MutexLock lock(&mutex_);
    profiles_[key] = ready.get_future().share();
}

ProfileStore::ProfilePtr
ProfileStore::find(const std::string &key) const
{
    std::shared_future<ProfilePtr> future;
    {
        MutexLock lock(&mutex_);
        const auto it = profiles_.find(key);
        if (it == profiles_.end())
            return nullptr;
        future = it->second;
    }
    // May block on an in-flight calibration of the same key; by the
    // time find() returns, the profile is real either way.
    return future.get();
}

void
ProfileStore::clear()
{
    // An in-flight calibration holds its own promise; dropping the
    // map only forgets finished or future entries, it cannot leave a
    // waiter dangling (shared_future keeps the state alive).
    MutexLock lock(&mutex_);
    profiles_.clear();
}

} // namespace litmus::pricing
