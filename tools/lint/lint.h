/**
 * @file
 * litmus-lint: project-invariant static analysis.
 *
 * The repo's guarantees — bit-identical billing at any thread count,
 * seed-deterministic traffic, 1e-15 conservation — rest on source
 * invariants that no compiler flag checks: no wall-clock or unseeded
 * randomness, no unordered-container iteration feeding reports, no
 * lenient numeric parsing, a strict layer DAG, and a single annotated
 * concurrency discipline. This tool walks the tree and enforces them
 * as named rules, so the invariants survive contributors instead of
 * depending on reviewer vigilance.
 *
 * Deliberately dependency-free (std + std::filesystem only): it must
 * build in seconds as a CI fast-gate, before the simulator itself.
 *
 * Rule catalog (see ruleCatalog() for one-line docs):
 *   wall-clock      real-time clocks anywhere in scanned code
 *   unseeded-rng    rand()/random_device/unseeded mt19937 outside
 *                   common/rng
 *   unordered-decl  unordered containers in src/ need an audit
 *                   annotation (order must never reach output)
 *   unordered-iter  iteration over an unordered container
 *   layering        upward #include edges in the layer DAG
 *                   common -> sim -> workload -> core -> cluster ->
 *                   scenario, and src/ includes of apps//bench//
 *                   tools//tests/
 *   raw-parse       lenient numeric parsing in src/ (use the strict
 *                   parsers in common/strings.h)
 *   float-billing   `float` in billing/pricing code (double is the
 *                   project currency type)
 *   stale-allow     a LITMUS-LINT-ALLOW pragma that suppresses
 *                   nothing
 *   bad-allow       a malformed LITMUS-LINT-ALLOW pragma
 *
 * Cross-file rules (need the whole tree, so they only run in tree
 * scans — runLint/lintFiles — never in single-file lintContent):
 *   lock-annotation raw std::mutex members in src/ (use
 *                   litmus::Mutex), and members touched under a lock
 *                   that are not LITMUS_GUARDED_BY that mutex
 *   lock-order      nested lock acquisitions whose order cycles
 *                   across the tree, and a checked-in canonical
 *                   order file that is out of date
 *   include-graph   circular #include chains, and src/ includes of
 *                   a project header nothing of which is used; also
 *                   exports the project include DAG (JSON/dot), with
 *                   unused includes outside src/ as advisories
 *   test-only       a src/ header no scanned file includes except its
 *                   own .cc (tests and examples are not scanned)
 *
 * Suppression: `// LITMUS-LINT-ALLOW(rule): reason` on the offending
 * line, or alone on the line above it. Each pragma suppresses exactly
 * one finding of the named rule; the reason is mandatory — it is the
 * audit record.
 */

#ifndef LITMUS_TOOLS_LINT_LINT_H
#define LITMUS_TOOLS_LINT_LINT_H

#include <string>
#include <vector>

namespace litmus::lint
{

/** One rule violation (or pragma problem) at a source location. */
struct Finding
{
    std::string file; ///< path relative to the scan root
    int line = 0;     ///< 1-based
    std::string rule;
    std::string message;
};

/** A rule's name and one-line description, for --list-rules. */
struct RuleInfo
{
    std::string name;
    std::string description;
};

/** One file of the tree, already loaded (lintFiles input). */
struct SourceFile
{
    std::string path; ///< root-relative, e.g. "src/core/billing.cc"
    std::string content;
};

/** What to scan and how. */
struct Options
{
    /** Tree root; scan paths and reported paths are relative to it. */
    std::string root = ".";

    /** Directories under root to walk (default: the code tree). */
    std::vector<std::string> dirs = {"src", "apps", "bench", "tools"};

    /** When non-empty, only run rules whose name is listed. The
     *  pragma rules (stale-allow / bad-allow) always run. */
    std::vector<std::string> rules;

    /**
     * Root-relative path of the checked-in canonical lock-order file.
     * When non-empty, tree scans compare the lock order derived from
     * the code against @ref lockOrderExpected and report a lock-order
     * finding on mismatch. runLint fills lockOrderExpected from this
     * file; lintFiles callers (tests) set it directly.
     */
    std::string lockOrderFile;

    /** Expected content of @ref lockOrderFile (see above). */
    std::string lockOrderExpected;
};

/** Scan outcome. */
struct Report
{
    std::vector<Finding> findings; ///< blocking; file, then line order
    /** Non-blocking hygiene notes (unused project includes outside
     *  src/). They never affect clean() or the exit code. */
    std::vector<Finding> advisories;
    int filesScanned = 0;
    int suppressions = 0; ///< findings silenced by ALLOW pragmas

    /** Canonical lock order derived from the tree (tree scans only);
     *  the expected content of Options::lockOrderFile. */
    std::string lockOrderText;

    /** Project include DAG (tree scans only). */
    std::string includeGraphJson;
    std::string includeGraphDot;

    bool clean() const { return findings.empty(); }
};

/** All rules, in catalog order. */
const std::vector<RuleInfo> &ruleCatalog();

/** True when @p name is a known rule (incl. the pragma rules). */
bool knownRule(const std::string &name);

/** True when @p name is a cross-file rule (tree scans only). */
bool isTreeRule(const std::string &name);

/** Run the scan. Throws std::runtime_error on unreadable root/dirs. */
Report runLint(const Options &options);

/**
 * Lint an already-loaded tree: the per-file rules on each file plus
 * the cross-file rules over all of them. runLint is this plus disk
 * I/O; tests call it directly with in-memory trees.
 */
Report lintFiles(const std::vector<SourceFile> &files,
                 const Options &options);

/**
 * Lint a single in-memory file (unit-test entry point). @p path is
 * the root-relative path the rules use for scoping, e.g.
 * "src/core/billing.cc". Per-file rules only; cross-file rules need
 * lintFiles. Pragmas naming cross-file rules are left for the tree
 * pass (neither applied nor reported stale here).
 */
std::vector<Finding> lintContent(const std::string &path,
                                 const std::string &content,
                                 const Options &options,
                                 int *suppressions = nullptr);

/**
 * Rewrite @p content with the ALLOW pragmas on @p pragmaLines
 * removed: a pragma alone on its line is deleted with the line, a
 * trailing pragma comment is snipped off its code line. Lines not
 * carrying a pragma are left untouched (and their numbers ignored).
 * Idempotent: re-running on the result is a no-op. This is the
 * engine of `litmus_lint --fix-stale`.
 */
std::string stripStalePragmas(const std::string &content,
                              const std::vector<int> &pragmaLines);

/** Machine-readable report (stable JSON, findings + totals). */
std::string toJson(const Report &report);

} // namespace litmus::lint

#endif // LITMUS_TOOLS_LINT_LINT_H
