/**
 * @file
 * Name -> machine-preset registry.
 *
 * The paper calibrates and prices on two concrete servers; a
 * heterogeneous fleet mixes generations, so machine descriptions are
 * first-class named artifacts rather than hard-wired factory calls.
 * Every app, bench, and test resolves a MachineConfig through this
 * catalog, and fleet specs ("cascade-5218:8,icelake-4314:8") are
 * strings of catalog names — adding a new generation is one
 * registerPreset() call or one key=value file, never a recompile of
 * the call sites.
 *
 * Built-in presets (canonical name first, then aliases):
 *
 *  - "cascade-5218"      (cascadelake, xeon-gold-5218): dual-socket
 *    Xeon Gold 5218 folded into one domain, Section 3;
 *  - "cascade-5218-dual" (xeon-gold-5218-dual): the same server with
 *    both sockets modelled explicitly;
 *  - "icelake-4314"      (icelake, xeon-silver-4314): Xeon Silver
 *    4314, Section 8.
 *
 * The registry is process-wide and thread-safe; lookups copy the
 * preset so callers can tweak fields freely.
 */

#ifndef LITMUS_SIM_MACHINE_CATALOG_H
#define LITMUS_SIM_MACHINE_CATALOG_H

#include <string>
#include <vector>

#include "common/line_reader.h"
#include "sim/machine_config.h"

namespace litmus::sim
{

class MachineCatalog
{
  public:
    /** Preset by name or alias; fail at @p at listing the catalog
     *  when unknown. The returned config is a copy. */
    static MachineConfig get(const std::string &name,
                             const SourceLine &at = {});

    /** True when @p name resolves (canonical or alias). */
    static bool has(const std::string &name);

    /**
     * Register (or replace) a custom preset under cfg.name plus any
     * extra aliases. The config is validated first. Replacing a
     * built-in is allowed — experiments that reshape a preset
     * re-register it under a new name instead of mutating shared
     * state.
     */
    static void registerPreset(const MachineConfig &cfg,
                               const std::vector<std::string> &aliases = {});

    /**
     * Parse a key=value preset file (applyMachineOverrides keys, plus
     * `base = <preset>` selecting the starting preset, default
     * "cascade-5218") and register it. The file must set `name`;
     * returns the registered config.
     */
    static MachineConfig registerFromFile(const std::string &path);

    /** Canonical preset names, sorted (error messages, --help). */
    static std::vector<std::string> names();
};

} // namespace litmus::sim

#endif // LITMUS_SIM_MACHINE_CATALOG_H
