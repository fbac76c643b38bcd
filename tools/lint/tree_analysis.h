/**
 * @file
 * litmus-lint cross-file pass (internal).
 *
 * One whole-tree walk producing the cross-file rules and artifacts:
 *
 *   lock-annotation  every class's data members are indexed across
 *                    all files; raw std::mutex members in src/ are
 *                    rejected, and members touched inside a
 *                    MutexLock/UniqueLock/lock_guard scope must be
 *                    LITMUS_GUARDED_BY the mutex that scope holds.
 *   lock-order       nested guard scopes become edges of a lock
 *                    nesting graph spanning every TU; cycles are
 *                    findings, and the graph's topological order is
 *                    the canonical lock order (Report::lockOrderText,
 *                    checked against tools/lint/lock_order.txt).
 *   include-graph    quoted #includes resolved against the scanned
 *                    file set form the project include DAG, exported
 *                    as JSON and dot; cycles and unused includes in
 *                    src/ are findings, unused includes elsewhere are
 *                    advisories.
 *   test-only        a src/ header that no scanned file includes
 *                    except its own .cc.
 *
 * The pass is deliberately lexical (the same stripped-token view the
 * per-file rules use) — it does not typecheck. Where resolution is
 * ambiguous it stays silent rather than guessing: every finding it
 * does emit is a real discipline violation.
 */

#ifndef LITMUS_TOOLS_LINT_TREE_ANALYSIS_H
#define LITMUS_TOOLS_LINT_TREE_ANALYSIS_H

#include <vector>

#include "lint.h"

namespace litmus::lint::detail
{

/** Run the cross-file rules over @p files, appending findings,
 *  advisories, and the generated artifacts to @p report. */
void runTreeAnalysis(const std::vector<SourceFile> &files,
                     const Options &options, Report &report);

} // namespace litmus::lint::detail

#endif // LITMUS_TOOLS_LINT_TREE_ANALYSIS_H
