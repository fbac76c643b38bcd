#include "sim/machine_catalog.h"

#include <algorithm>
#include <map>

#include "common/config_reader.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/name_table.h"

namespace litmus::sim
{

namespace
{

/** Dual-socket Xeon Gold 5218 folded into one domain, Section 3. */
MachineConfig
cascade5218()
{
    MachineConfig cfg;
    cfg.name = "cascade-5218";
    cfg.cores = 32;
    cfg.smtWays = 1;
    cfg.baseFrequency = 2.8_GHz;
    cfg.turboFrequency = 3.9_GHz;
    cfg.l3Capacity = 44_MiB;
    cfg.l3HitLatencyNs = 14.3;
    cfg.memLatencyNs = 71.0;
    cfg.l3ServiceRate = 5.6;
    cfg.memServiceRate = 1.95;
    cfg.memoryCapacity = 384_GiB;
    return cfg;
}

/**
 * The same server with both sockets modelled explicitly: cores 0-15
 * on socket 0, 16-31 on socket 1, each with its own 22 MiB L3 and
 * half the bandwidth pools. Cross-socket isolation is perfect in this
 * model (no coherence traffic).
 */
MachineConfig
cascade5218Dual()
{
    MachineConfig cfg = cascade5218();
    cfg.name = "cascade-5218-dual";
    cfg.sockets = 2;
    cfg.l3Capacity = 22_MiB;
    cfg.l3ServiceRate /= 2.0;
    cfg.memServiceRate /= 2.0;
    return cfg;
}

/** Xeon Silver 4314 domain (Ice Lake), Section 8. */
MachineConfig
icelake4314()
{
    MachineConfig cfg;
    cfg.name = "icelake-4314";
    cfg.cores = 16;
    cfg.smtWays = 1;
    cfg.baseFrequency = 2.4_GHz;
    cfg.turboFrequency = 3.4_GHz;
    cfg.l3Capacity = 24_MiB;
    // Ice Lake: slightly slower L3, better memory subsystem per core.
    cfg.l3HitLatencyNs = 17.0;
    cfg.memLatencyNs = 75.0;
    cfg.l3ServiceRate = 3.2;
    cfg.memServiceRate = 1.35;
    cfg.memoryCapacity = 128_GiB;
    return cfg;
}

struct Registry
{
    Mutex mutex;

    /** Canonical name -> preset. */
    std::map<std::string, MachineConfig> presets
        LITMUS_GUARDED_BY(mutex);

    /** Alias -> canonical name. Indirect, so replacing a preset
     *  updates its aliases too. */
    std::map<std::string, std::string> aliases
        LITMUS_GUARDED_BY(mutex);

    /** Canonical names, in registration order. */
    std::vector<std::string> canonical LITMUS_GUARDED_BY(mutex);

    Registry()
    {
        // Construction is single-threaded (function-local static),
        // but add() requires the capability, so take it — uncontended
        // and it keeps the annotations suppression-free.
        MutexLock lock(&mutex);
        add(cascade5218(), {"cascadelake", "xeon-gold-5218"});
        add(cascade5218Dual(), {"xeon-gold-5218-dual"});
        add(icelake4314(), {"icelake", "xeon-silver-4314"});
    }

    /** Resolve canonical-or-alias; nullptr when unknown. */
    const MachineConfig *lookup(const std::string &name) const
        LITMUS_REQUIRES(mutex)
    {
        auto it = presets.find(name);
        if (it == presets.end()) {
            const auto alias = aliases.find(name);
            if (alias == aliases.end())
                return nullptr;
            it = presets.find(alias->second);
        }
        return it == presets.end() ? nullptr : &it->second;
    }

    /** Register under cfg.name + aliases. */
    void add(const MachineConfig &cfg,
             const std::vector<std::string> &alias_names)
        LITMUS_REQUIRES(mutex)
    {
        cfg.validate();
        requireToken(cfg.name);
        if (!presets.contains(cfg.name))
            canonical.push_back(cfg.name);
        presets[cfg.name] = cfg;
        for (const std::string &alias : alias_names) {
            requireToken(alias);
            aliases[alias] = cfg.name;
        }
    }

    /** Names travel through fleet specs ("type:count,...") and v2
     *  profile records, so they must be single clean tokens. */
    static void requireToken(const std::string &name)
    {
        if (name.empty())
            fatal("MachineCatalog: preset has no name");
        if (name.find_first_of(" \t\n\r:,") != std::string::npos)
            fatal("MachineCatalog: preset name '", name,
                  "' may not contain whitespace, ':' or ','");
    }
};

Registry &
registry()
{
    static Registry instance;
    return instance;
}

} // namespace

MachineConfig
MachineCatalog::get(const std::string &name, const SourceLine &at)
{
    Registry &reg = registry();
    MutexLock lock(&reg.mutex);
    const MachineConfig *preset = reg.lookup(name);
    if (!preset)
        at.fail("MachineCatalog: unknown machine '", name,
                "' (catalog: ", joinNames(reg.canonical), ")");
    return *preset;
}

bool
MachineCatalog::has(const std::string &name)
{
    Registry &reg = registry();
    MutexLock lock(&reg.mutex);
    return reg.lookup(name) != nullptr;
}

void
MachineCatalog::registerPreset(const MachineConfig &cfg,
                               const std::vector<std::string> &aliases)
{
    Registry &reg = registry();
    MutexLock lock(&reg.mutex);
    reg.add(cfg, aliases);
}

MachineConfig
MachineCatalog::registerFromFile(const std::string &path)
{
    const ConfigReader file = ConfigReader::fromFile(path);
    MachineConfig cfg =
        get(file.getString("base", "cascade-5218"), file.at("base"));
    applyMachineOverrides(cfg, file);

    if (!file.contains("name"))
        fatal("MachineCatalog: preset file '", path,
              "' must set name = <preset-name>");
    registerPreset(cfg);
    return cfg;
}

std::vector<std::string>
MachineCatalog::names()
{
    Registry &reg = registry();
    MutexLock lock(&reg.mutex);
    std::vector<std::string> out = reg.canonical;
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace litmus::sim
