/**
 * @file
 * Language-runtime startup models (the substrate of the Litmus test).
 *
 * Section 6 observes that functions written in the same language have
 * nearly identical startup phases (Figure 6): Python spends ~19 ms in
 * interpreter init / imports / compilation, Node.js ~97 ms, Go ~6 ms,
 * all with bursts of memory reads while loading images and libraries.
 * These programs reproduce that structure: every function of a given
 * language begins with the same startup phase program, making the
 * startup a consistent congestion probe.
 */

#ifndef LITMUS_WORKLOAD_RUNTIME_STARTUP_H
#define LITMUS_WORKLOAD_RUNTIME_STARTUP_H

#include <string>
#include <vector>

#include "common/name_table.h"
#include "sim/task.h"

namespace litmus::workload
{

/** Language runtimes used by the Table 1 suite. */
enum class Language
{
    Python,
    NodeJs,
    Go,
};

/** Display names: reports and the ledger's tenant names. */
inline constexpr Spelling<Language> kLanguageNames[] = {
    {Language::Python, "Python"},
    {Language::NodeJs, "Node.js"},
    {Language::Go, "Go"},
};

/** Suffixes of the suite's function names ("float-py"). */
inline constexpr Spelling<Language> kLanguageSuffixes[] = {
    {Language::Python, "py"},
    {Language::NodeJs, "nj"},
    {Language::Go, "go"},
};

/** Display name ("Python", "Node.js", "Go"): a scan of three entries
 *  into a string short enough to stay inline. */
inline std::string
languageName(Language lang)
{
    return std::string(nameOf(kLanguageNames, lang));
}

/** All modelled languages, in a stable order. */
const std::vector<Language> &allLanguages();

/**
 * The startup phases of a language. Identical for every
 * function of that language (the property the Litmus test exploits).
 */
const std::vector<sim::Phase> &startupProgram(Language lang);

/**
 * Litmus-probe window for the language: the instruction count over
 * which startup slowdown and machine L3 misses are measured. The
 * paper uses the first 45M instructions of the Python startup
 * (Section 7.1); Go's startup is shorter, so its window is smaller.
 */
Instructions probeWindow(Language lang);

} // namespace litmus::workload

#endif // LITMUS_WORKLOAD_RUNTIME_STARTUP_H
