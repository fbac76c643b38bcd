#include "workload/runtime_startup.h"

#include "common/logging.h"
#include "common/units.h"

namespace litmus::workload
{

namespace
{

/** Helper to build a phase tersely. */
sim::Phase
phase(const char *name, double minstr, double cpi0, double mpki,
      double ws_mib, double miss_base, double mlp)
{
    sim::Phase p;
    p.name = name;
    p.instructions = minstr * 1e6;
    p.demand.cpi0 = cpi0;
    p.demand.l2Mpki = mpki;
    p.demand.l3WorkingSet = static_cast<Bytes>(ws_mib * 1024 * 1024);
    p.demand.l3MissBase = miss_base;
    p.demand.mlp = mlp;
    return p;
}

/**
 * CPython startup: interpreter bring-up, core and site imports (the
 * memory-read bursts of Figure 6's Python panel), bytecode
 * compilation, and first-execution warm-up. Roughly 60M instructions,
 * ~19 ms solo at 2.8 GHz.
 */
std::vector<sim::Phase>
buildPythonStartup()
{
    // Startup loads overlap heavily (streamed images, prefetched
    // libraries), so MLP is high: the startup is memory-*traffic*
    // heavy without dominating the stall budget of long functions.
    return {
        phase("py-interp-init", 5.0, 0.95, 15.0, 2.0, 0.32, 10.0),
        phase("py-import-core", 11.0, 0.75, 19.0, 3.2, 0.35, 10.0),
        phase("py-import-site", 13.0, 0.62, 16.0, 3.6, 0.30, 10.0),
        phase("py-compile", 14.0, 0.42, 8.0, 2.0, 0.20, 10.0),
        phase("py-exec-init", 10.0, 0.36, 5.0, 1.5, 0.15, 10.0),
        phase("py-gc-warm", 7.0, 0.52, 10.0, 2.2, 0.25, 10.0),
    };
}

/**
 * Node.js startup: V8 snapshot load, builtin module registration,
 * CommonJS resolution and JIT warm-up. The longest startup of the
 * three (~97 ms in Figure 6), with sustained memory traffic.
 */
std::vector<sim::Phase>
buildNodeStartup()
{
    return {
        phase("nj-v8-init", 32.0, 0.85, 13.0, 2.6, 0.30, 10.0),
        phase("nj-snapshot", 54.0, 0.70, 18.0, 4.0, 0.38, 10.0),
        phase("nj-builtins", 79.0, 0.58, 15.0, 4.4, 0.32, 10.0),
        phase("nj-resolve", 94.0, 0.62, 14.0, 3.6, 0.30, 10.0),
        phase("nj-jit-warm", 83.0, 0.40, 6.0, 2.4, 0.18, 10.0),
        phase("nj-event-loop", 50.0, 0.50, 9.0, 2.4, 0.24, 10.0),
    };
}

/**
 * Go startup: statically linked binaries boot fast (~6 ms); runtime
 * init, allocator/scheduler setup, and package init() blocks.
 */
std::vector<sim::Phase>
buildGoStartup()
{
    return {
        phase("go-rt-init", 4.0, 0.62, 12.0, 1.8, 0.30, 10.0),
        phase("go-alloc-init", 6.0, 0.48, 9.0, 2.0, 0.26, 10.0),
        phase("go-pkg-init", 8.0, 0.40, 6.0, 1.6, 0.20, 10.0),
    };
}

} // namespace

const std::vector<Language> &
allLanguages()
{
    static const std::vector<Language> langs = {
        Language::Python, Language::NodeJs, Language::Go};
    return langs;
}

const std::vector<sim::Phase> &
startupProgram(Language lang)
{
    static const std::vector<sim::Phase> python = buildPythonStartup();
    static const std::vector<sim::Phase> node = buildNodeStartup();
    static const std::vector<sim::Phase> go = buildGoStartup();
    switch (lang) {
      case Language::Python:
        return python;
      case Language::NodeJs:
        return node;
      case Language::Go:
        return go;
    }
    panic("startupProgram: bad language");
}

Instructions
probeWindow(Language lang)
{
    switch (lang) {
      case Language::Python:
        return 45_Minstr;
      case Language::NodeJs:
        return 45_Minstr;
      case Language::Go:
        return 12_Minstr;
    }
    panic("probeWindow: bad language");
}

} // namespace litmus::workload
