#include "lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "lint_util.h"
#include "tree_analysis.h"

namespace fs = std::filesystem;

namespace litmus::lint
{

using detail::collectPragmas;
using detail::findToken;
using detail::isIdentChar;
using detail::kAllowMarker;
using detail::lineOfOffset;
using detail::memberQualified;
using detail::Pragma;
using detail::skipSpace;
using detail::splitLines;
using detail::stripCommentsAndStrings;

namespace
{

// ---------------------------------------------------------------- //
// Rule catalog                                                     //
// ---------------------------------------------------------------- //

constexpr const char *kWallClock = "wall-clock";
constexpr const char *kUnseededRng = "unseeded-rng";
constexpr const char *kUnorderedDecl = "unordered-decl";
constexpr const char *kUnorderedIter = "unordered-iter";
constexpr const char *kLayering = "layering";
constexpr const char *kRawParse = "raw-parse";
constexpr const char *kFloatBilling = "float-billing";
constexpr const char *kStaleAllow = "stale-allow";
constexpr const char *kBadAllow = "bad-allow";
constexpr const char *kLockAnnotation = "lock-annotation";
constexpr const char *kLockOrder = "lock-order";
constexpr const char *kIncludeGraph = "include-graph";
constexpr const char *kTestOnly = "test-only";

const std::vector<RuleInfo> &
catalog()
{
    static const std::vector<RuleInfo> rules = {
        {kWallClock,
         "real-time clock use (system_clock/steady_clock/time()/...) "
         "— simulated time and seeded RNG are the only time sources"},
        {kUnseededRng,
         "rand()/srand()/std::random_device/default_random_engine "
         "anywhere, or std::mt19937 without an explicit seed, outside "
         "common/rng — all randomness flows from the experiment seed"},
        {kUnorderedDecl,
         "unordered_map/unordered_set declared in src/ without an "
         "audit annotation — confirm iteration order can never reach "
         "a report, billing total, or dispatch decision, then ALLOW"},
        {kUnorderedIter,
         "iteration over an unordered container — the visit order is "
         "implementation-defined and must not feed any output"},
        {kLayering,
         "#include edge that goes up the layer DAG common -> sim -> "
         "workload -> core -> cluster -> scenario, or any src/ "
         "include of apps//bench//tools//tests/"},
        {kRawParse,
         "lenient numeric parsing (atof/strtod/stod/...) in src/ — "
         "use the strict whole-string parsers in common/strings.h"},
        {kFloatBilling,
         "`float` in billing/pricing code — money and billed seconds "
         "are double end to end; float truncation breaks 1e-15 "
         "conservation"},
        {kStaleAllow,
         "LITMUS-LINT-ALLOW pragma that suppressed nothing — stale "
         "annotations rot into misdocumentation; remove it (or run "
         "litmus_lint --fix-stale)"},
        {kBadAllow,
         "malformed LITMUS-LINT-ALLOW pragma (unknown rule, missing "
         "reason, or bad syntax)"},
        {kLockAnnotation,
         "cross-file: raw std::mutex/std::shared_mutex member in src/ "
         "(use litmus::Mutex so the lock is a visible capability), or "
         "a member touched under a lock scope that is not "
         "LITMUS_GUARDED_BY that mutex"},
        {kLockOrder,
         "cross-file: nested lock acquisitions whose order forms a "
         "cycle across the tree, or a canonical lock-order file "
         "(tools/lint/lock_order.txt) that no longer matches the "
         "code — refresh with --update-lock-order"},
        {kIncludeGraph,
         "cross-file: circular #include chain among project headers, "
         "or a src/ include of a project header it uses nothing from; "
         "the full include DAG is exported with --include-graph, and "
         "unused includes outside src/ are reported as advisories"},
        {kTestOnly,
         "cross-file: a src/ header that no scanned file includes "
         "except its own .cc — a capability only tests or examples "
         "use; delete it with its tests"},
    };
    return rules;
}

// ---------------------------------------------------------------- //
// Path classification                                              //
// ---------------------------------------------------------------- //

struct FileClass
{
    bool inSrc = false;
    int layer = -1; ///< rank in the DAG when inSrc, else -1
    std::string basename;
};

/** Layer rank; the DAG is the true dependency order of the tree. */
int
layerRank(const std::string &layer)
{
    static const std::map<std::string, int> ranks = {
        {"common", 0},  {"sim", 1},     {"workload", 2},
        {"core", 3},    {"cluster", 4}, {"scenario", 5},
    };
    const auto it = ranks.find(layer);
    return it == ranks.end() ? -1 : it->second;
}

FileClass
classify(const std::string &path)
{
    FileClass fc;
    fc.inSrc = path.rfind("src/", 0) == 0;
    if (fc.inSrc) {
        const auto slash = path.find('/', 4);
        if (slash != std::string::npos)
            fc.layer = layerRank(path.substr(4, slash - 4));
    }
    const auto slash = path.find_last_of('/');
    fc.basename =
        slash == std::string::npos ? path : path.substr(slash + 1);
    return fc;
}

bool
isRngHome(const std::string &path)
{
    return path == "src/common/rng.h" || path == "src/common/rng.cc";
}

bool
isBillingFile(const std::string &basename)
{
    for (const char *marker :
         {"billing", "pricing", "discount", "poppa", "probe",
          "calibration", "profile_store", "table_io"}) {
        if (basename.find(marker) != std::string::npos)
            return true;
    }
    return false;
}

// ---------------------------------------------------------------- //
// Rules                                                            //
// ---------------------------------------------------------------- //

using Emit = std::vector<Finding> &;

void
checkWallClock(const std::string &path, const std::string &code,
               Emit findings)
{
    for (const char *token :
         {"system_clock", "steady_clock", "high_resolution_clock",
          "gettimeofday", "clock_gettime", "timespec_get"}) {
        for (std::size_t pos = findToken(code, token, 0);
             pos != std::string::npos;
             pos = findToken(code, token, pos + 1)) {
            findings.push_back(
                {path, lineOfOffset(code, pos), kWallClock,
                 std::string(token) +
                     " reads real time — results would change run to "
                     "run; use simulated time (Engine::now)"});
        }
    }
    // time(...) / clock(...) as free or std:: calls; members like
    // task.launchTime() or snapshot.clock are fine.
    for (const char *token : {"time", "clock"}) {
        for (std::size_t pos = findToken(code, token, 0);
             pos != std::string::npos;
             pos = findToken(code, token, pos + 1)) {
            const std::size_t after =
                skipSpace(code, pos + std::string(token).size());
            if (after >= code.size() || code[after] != '(')
                continue;
            if (memberQualified(code, pos))
                continue;
            findings.push_back(
                {path, lineOfOffset(code, pos), kWallClock,
                 std::string(token) +
                     "() reads the libc real-time clock — use "
                     "simulated time (Engine::now)"});
        }
    }
}

void
checkUnseededRng(const std::string &path, const std::string &code,
                 Emit findings)
{
    if (isRngHome(path))
        return;
    struct Banned
    {
        const char *token;
        bool call; ///< must be followed by '('
        const char *why;
    };
    for (const Banned &ban : {
             Banned{"rand", true,
                    "rand() is unseeded global state — draw from a "
                    "litmus::Rng owned by the experiment"},
             Banned{"srand", true,
                    "srand() is global seeding — seed a litmus::Rng "
                    "explicitly instead"},
             Banned{"random_device", false,
                    "std::random_device is nondeterministic by design "
                    "— derive streams from the experiment seed "
                    "(Rng::fork)"},
             Banned{"default_random_engine", false,
                    "std::default_random_engine varies by platform — "
                    "use litmus::Rng"},
             Banned{"random_shuffle", true,
                    "std::random_shuffle uses hidden global state — "
                    "use std::shuffle with a litmus::Rng"},
         }) {
        for (std::size_t pos = findToken(code, ban.token, 0);
             pos != std::string::npos;
             pos = findToken(code, ban.token, pos + 1)) {
            if (ban.call) {
                const std::size_t after = skipSpace(
                    code, pos + std::string(ban.token).size());
                if (after >= code.size() || code[after] != '(')
                    continue;
                if (memberQualified(code, pos))
                    continue;
            }
            findings.push_back(
                {path, lineOfOffset(code, pos), kUnseededRng, ban.why});
        }
    }
    // mt19937 with no initializer on its declaration line is seeded
    // with the fixed default — every run identical to every other
    // experiment's, defeating per-seed replication.
    for (const char *token : {"mt19937", "mt19937_64"}) {
        for (std::size_t pos = findToken(code, token, 0);
             pos != std::string::npos;
             pos = findToken(code, token, pos + 1)) {
            const std::size_t eol = code.find('\n', pos);
            const std::string rest = code.substr(
                pos + std::string(token).size(),
                eol == std::string::npos ? std::string::npos
                                         : eol - pos -
                                               std::string(token).size());
            if (rest.find('(') != std::string::npos ||
                rest.find('{') != std::string::npos)
                continue;
            findings.push_back(
                {path, lineOfOffset(code, pos), kUnseededRng,
                 std::string(token) +
                     " without an explicit seed initializer — seed "
                     "from the experiment (or use litmus::Rng)"});
        }
    }
}

/**
 * Names declared as unordered containers in this file: after the
 * template argument list closes, the next identifier (skipping
 * cv/ref/pointer noise, possibly on the next line) is the variable.
 */
std::vector<std::string>
unorderedNames(const std::string &code)
{
    std::vector<std::string> names;
    for (const char *token : {"unordered_map", "unordered_set"}) {
        for (std::size_t pos = findToken(code, token, 0);
             pos != std::string::npos;
             pos = findToken(code, token, pos + 1)) {
            std::size_t i =
                skipSpace(code, pos + std::string(token).size());
            if (i >= code.size() || code[i] != '<')
                continue;
            int depth = 0;
            for (; i < code.size(); ++i) {
                if (code[i] == '<')
                    ++depth;
                else if (code[i] == '>' && --depth == 0)
                    break;
            }
            if (i >= code.size())
                continue;
            ++i;
            for (;;) {
                i = skipSpace(code, i);
                if (i < code.size() &&
                    (code[i] == '*' || code[i] == '&')) {
                    ++i;
                    continue;
                }
                break;
            }
            std::size_t end = i;
            while (end < code.size() && isIdentChar(code[end]))
                ++end;
            if (end > i) {
                const std::string name = code.substr(i, end - i);
                if (name != "const")
                    names.push_back(name);
            }
        }
    }
    return names;
}

void
checkUnorderedDecl(const std::string &path, const FileClass &fc,
                   const std::string &code, Emit findings)
{
    if (!fc.inSrc)
        return;
    for (const char *token : {"unordered_map", "unordered_set"}) {
        for (std::size_t pos = findToken(code, token, 0);
             pos != std::string::npos;
             pos = findToken(code, token, pos + 1)) {
            // Only the declaration sites (token followed by '<');
            // #include <unordered_map> lines survive stripping but
            // have no template argument list.
            const std::size_t after =
                skipSpace(code, pos + std::string(token).size());
            if (after >= code.size() || code[after] != '<')
                continue;
            findings.push_back(
                {path, lineOfOffset(code, pos), kUnorderedDecl,
                 std::string(token) +
                     " in src/ needs an iteration-order audit — "
                     "annotate LITMUS-LINT-ALLOW(unordered-decl) with "
                     "why its order can never reach a report, billing "
                     "total, or dispatch decision (or use std::map)"});
        }
    }
}

void
checkUnorderedIter(const std::string &path, const std::string &code,
                   Emit findings)
{
    const std::vector<std::string> names = unorderedNames(code);
    if (names.empty())
        return;
    for (const std::string &name : names) {
        for (std::size_t pos = findToken(code, name, 0);
             pos != std::string::npos;
             pos = findToken(code, name, pos + 1)) {
            const std::size_t after = pos + name.size();
            bool iterates = false;
            const std::size_t next = skipSpace(code, after);
            // for (auto &x : name) / (... : m.name) / (... : *name):
            // the name sits in a range-for's range expression — walk
            // left across the expression to the ':' and confirm the
            // head opens with `for (`.
            {
                std::size_t i = pos;
                while (i > 0) {
                    const char c = code[i - 1];
                    if (isIdentChar(c) || c == '.' || c == '*' ||
                        c == '&' || c == '>' || c == '-' ||
                        std::isspace(static_cast<unsigned char>(c))) {
                        --i;
                        continue;
                    }
                    break;
                }
                if (i > 0 && code[i - 1] == ':' &&
                    (i < 2 || code[i - 2] != ':')) {
                    const std::size_t open = code.rfind('(', i - 1);
                    if (open != std::string::npos) {
                        std::size_t kw = open;
                        while (kw > 0 &&
                               std::isspace(static_cast<unsigned char>(
                                   code[kw - 1])))
                            --kw;
                        if (kw >= 3 &&
                            code.compare(kw - 3, 3, "for") == 0 &&
                            (kw == 3 || !isIdentChar(code[kw - 4])))
                            iterates = true;
                    }
                }
            }
            // name.begin() / name->begin() / cbegin / rbegin.
            if (!iterates) {
                std::size_t m = next;
                if (m < code.size() && code[m] == '.')
                    ++m;
                else if (m + 1 < code.size() && code[m] == '-' &&
                         code[m + 1] == '>')
                    m += 2;
                else
                    m = std::string::npos;
                if (m != std::string::npos) {
                    m = skipSpace(code, m);
                    for (const char *fn : {"begin", "cbegin", "rbegin"}) {
                        if (findToken(code, fn, m) == m) {
                            iterates = true;
                            break;
                        }
                    }
                }
            }
            if (iterates) {
                findings.push_back(
                    {path, lineOfOffset(code, pos), kUnorderedIter,
                     "iterating '" + name +
                         "', an unordered container — visit order is "
                         "implementation-defined; iterate a sorted "
                         "copy or prove the fold is order-independent "
                         "and ALLOW"});
            }
        }
    }
}

void
checkLayering(const std::string &path, const FileClass &fc,
              const std::vector<std::string> &rawLines, Emit findings)
{
    static const std::vector<std::string> layerNames = {
        "common", "sim", "workload", "core", "cluster", "scenario"};
    if (!fc.inSrc)
        return;
    for (const detail::IncludeLine &inc : detail::parseIncludes(rawLines)) {
        for (const char *outside :
             {"apps/", "bench/", "tools/", "tests/"}) {
            if (inc.target.rfind(outside, 0) == 0) {
                findings.push_back(
                    {path, inc.line, kLayering,
                     "src/ must not include " + std::string(outside) +
                         " — the library cannot depend on its "
                         "consumers"});
            }
        }
        const auto slash = inc.target.find('/');
        if (slash != std::string::npos && fc.layer >= 0) {
            const int targetLayer =
                layerRank(inc.target.substr(0, slash));
            if (targetLayer > fc.layer) {
                findings.push_back(
                    {path, inc.line, kLayering,
                     "upward include: " + layerNames[fc.layer] +
                         "/ must not include " + inc.target +
                         " (DAG: common -> sim -> workload -> "
                         "core -> cluster -> scenario)"});
            }
        }
    }
}

void
checkRawParse(const std::string &path, const FileClass &fc,
              const std::string &code, Emit findings)
{
    if (!fc.inSrc)
        return;
    for (const char *token :
         {"atof", "atoi", "atol", "atoll", "strtod", "strtof",
          "strtol", "strtoll", "strtoul", "strtoull", "stod", "stof",
          "stoi", "stol", "stoll", "stoul", "stoull", "sscanf"}) {
        for (std::size_t pos = findToken(code, token, 0);
             pos != std::string::npos;
             pos = findToken(code, token, pos + 1)) {
            const std::size_t after =
                skipSpace(code, pos + std::string(token).size());
            if (after >= code.size() || code[after] != '(')
                continue;
            if (memberQualified(code, pos))
                continue;
            findings.push_back(
                {path, lineOfOffset(code, pos), kRawParse,
                 std::string(token) +
                     "() accepts trailing junk, partial parses, or "
                     "inf/nan — use parseLongStrict/parseDoubleStrict "
                     "from common/strings.h"});
        }
    }
}

void
checkFloatBilling(const std::string &path, const FileClass &fc,
                  const std::string &code, Emit findings)
{
    if (!fc.inSrc || !isBillingFile(fc.basename))
        return;
    for (std::size_t pos = findToken(code, "float", 0);
         pos != std::string::npos;
         pos = findToken(code, "float", pos + 1)) {
        findings.push_back(
            {path, lineOfOffset(code, pos), kFloatBilling,
             "`float` in billing/pricing code — the currency type is "
             "double end to end (float rounding breaks conservation)"});
    }
}

bool
ruleEnabled(const Options &options, const std::string &rule)
{
    if (options.rules.empty())
        return true;
    return std::find(options.rules.begin(), options.rules.end(),
                     rule) != options.rules.end();
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
}

} // namespace

// ---------------------------------------------------------------- //
// Public entry points                                              //
// ---------------------------------------------------------------- //

const std::vector<RuleInfo> &
ruleCatalog()
{
    return catalog();
}

bool
knownRule(const std::string &name)
{
    for (const RuleInfo &rule : catalog()) {
        if (rule.name == name)
            return true;
    }
    return false;
}

bool
isTreeRule(const std::string &name)
{
    return name == kLockAnnotation || name == kLockOrder ||
           name == kIncludeGraph || name == kTestOnly;
}

std::vector<Finding>
lintContent(const std::string &path, const std::string &content,
            const Options &options, int *suppressions)
{
    const FileClass fc = classify(path);
    const std::string code = stripCommentsAndStrings(content);
    const std::vector<std::string> rawLines = splitLines(content);
    const std::vector<std::string> strippedLines = splitLines(code);

    std::vector<Finding> findings;
    std::vector<Pragma> pragmas = collectPragmas(
        path, rawLines, strippedLines, kBadAllow, findings);

    if (ruleEnabled(options, kWallClock))
        checkWallClock(path, code, findings);
    if (ruleEnabled(options, kUnseededRng))
        checkUnseededRng(path, code, findings);
    if (ruleEnabled(options, kUnorderedDecl))
        checkUnorderedDecl(path, fc, code, findings);
    if (ruleEnabled(options, kUnorderedIter))
        checkUnorderedIter(path, code, findings);
    if (ruleEnabled(options, kLayering))
        checkLayering(path, fc, rawLines, findings);
    if (ruleEnabled(options, kRawParse))
        checkRawParse(path, fc, code, findings);
    if (ruleEnabled(options, kFloatBilling))
        checkFloatBilling(path, fc, code, findings);

    // Suppress: each pragma eats at most one finding of its rule on
    // its target line (first by position), so a line with two
    // distinct violations needs two pragmas.
    std::vector<Finding> kept;
    int suppressed = 0;
    for (Finding &finding : findings) {
        bool drop = false;
        for (Pragma &pragma : pragmas) {
            if (!pragma.used && pragma.rule == finding.rule &&
                pragma.targetLine == finding.line) {
                pragma.used = true;
                drop = true;
                ++suppressed;
                break;
            }
        }
        if (!drop)
            kept.push_back(std::move(finding));
    }
    for (const Pragma &pragma : pragmas) {
        // Pragmas naming a cross-file rule belong to the tree pass,
        // which re-collects them and judges staleness itself; a
        // single-file scan cannot know whether they are used.
        if (isTreeRule(pragma.rule))
            continue;
        if (!pragma.used && ruleEnabled(options, pragma.rule)) {
            kept.push_back(
                {path, pragma.pragmaLine, kStaleAllow,
                 "LITMUS-LINT-ALLOW(" + pragma.rule +
                     ") suppresses nothing — remove the stale pragma"});
        }
    }
    if (suppressions)
        *suppressions += suppressed;

    std::sort(kept.begin(), kept.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return kept;
}

Report
lintFiles(const std::vector<SourceFile> &files, const Options &options)
{
    for (const std::string &rule : options.rules) {
        if (!knownRule(rule))
            throw std::runtime_error("unknown rule '" + rule + "'");
    }

    Report report;
    for (const SourceFile &file : files) {
        ++report.filesScanned;
        std::vector<Finding> findings = lintContent(
            file.path, file.content, options, &report.suppressions);
        report.findings.insert(report.findings.end(),
                               findings.begin(), findings.end());
    }

    detail::runTreeAnalysis(files, options, report);

    sortFindings(report.findings);
    sortFindings(report.advisories);
    return report;
}

Report
runLint(const Options &options)
{
    const fs::path root(options.root);
    if (!fs::is_directory(root))
        throw std::runtime_error("lint root '" + options.root +
                                 "' is not a directory");

    std::vector<std::string> paths;
    for (const std::string &dir : options.dirs) {
        const fs::path base = root / dir;
        if (!fs::is_directory(base))
            continue;
        for (const auto &entry :
             fs::recursive_directory_iterator(base)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".h" && ext != ".cc" && ext != ".cpp" &&
                ext != ".hpp")
                continue;
            const std::string rel =
                fs::relative(entry.path(), root).generic_string();
            // The linter's own sources spell every banned token and
            // the pragma grammar literally (rule tables, messages,
            // docs); they are covered by their unit tests instead of
            // by self-scanning.
            if (rel.rfind("tools/lint/", 0) == 0)
                continue;
            paths.push_back(rel);
        }
    }
    // Directory iteration order is filesystem-dependent; the report
    // must not be.
    std::sort(paths.begin(), paths.end());

    std::vector<SourceFile> files;
    files.reserve(paths.size());
    for (const std::string &path : paths) {
        std::ifstream in(root / path, std::ios::binary);
        if (!in)
            throw std::runtime_error("cannot read '" + path + "'");
        std::ostringstream buffer;
        buffer << in.rdbuf();
        files.push_back({path, buffer.str()});
    }

    Options resolved = options;
    if (!resolved.lockOrderFile.empty() &&
        resolved.lockOrderExpected.empty()) {
        std::ifstream in(root / resolved.lockOrderFile,
                         std::ios::binary);
        if (in) {
            std::ostringstream buffer;
            buffer << in.rdbuf();
            resolved.lockOrderExpected = buffer.str();
        }
        // Unreadable/missing stays empty: the tree pass reports the
        // mismatch as a lock-order finding rather than aborting.
    }

    return lintFiles(files, resolved);
}

std::string
stripStalePragmas(const std::string &content,
                  const std::vector<int> &pragmaLines)
{
    const std::string code = stripCommentsAndStrings(content);
    const std::vector<std::string> rawLines = splitLines(content);
    const std::vector<std::string> strippedLines = splitLines(code);

    std::string out;
    out.reserve(content.size());
    for (std::size_t i = 0; i < rawLines.size(); ++i) {
        const int lineNo = static_cast<int>(i) + 1;
        const std::string &line = rawLines[i];
        const bool last = i + 1 == rawLines.size();
        const bool listed =
            std::find(pragmaLines.begin(), pragmaLines.end(),
                      lineNo) != pragmaLines.end();
        const std::size_t marker = line.find(kAllowMarker);
        if (!listed || marker == std::string::npos) {
            out += line;
            if (!last)
                out += '\n';
            continue;
        }
        // Code on the line (outside comments/strings) means the
        // pragma is a trailing comment: snip from its `//` to the
        // end, keeping the code. A bare pragma line is dropped whole.
        const std::string &codeLine = strippedLines[i];
        const bool bare =
            std::all_of(codeLine.begin(), codeLine.end(), [](char c) {
                return std::isspace(static_cast<unsigned char>(c));
            });
        if (bare)
            continue; // drop the line (and its newline)
        std::size_t cut = line.rfind("//", marker);
        if (cut == std::string::npos)
            cut = marker; // malformed; snip conservatively
        while (cut > 0 &&
               (line[cut - 1] == ' ' || line[cut - 1] == '\t'))
            --cut;
        out += line.substr(0, cut);
        if (!last)
            out += '\n';
    }
    return out;
}

std::string
toJson(const Report &report)
{
    const auto escape = [](const std::string &text) {
        std::string out;
        out.reserve(text.size());
        for (char c : text) {
            switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                out += c;
            }
        }
        return out;
    };
    const auto list = [&](const std::vector<Finding> &findings,
                          std::ostringstream &out) {
        for (std::size_t i = 0; i < findings.size(); ++i) {
            const Finding &f = findings[i];
            out << (i == 0 ? "" : ",") << "\n    {\"file\": \""
                << escape(f.file) << "\", \"line\": " << f.line
                << ", \"rule\": \"" << escape(f.rule)
                << "\", \"message\": \"" << escape(f.message) << "\"}";
        }
        out << (findings.empty() ? "]" : "\n  ]");
    };
    std::ostringstream out;
    out << "{\n  \"files_scanned\": " << report.filesScanned
        << ",\n  \"suppressions\": " << report.suppressions
        << ",\n  \"finding_count\": " << report.findings.size()
        << ",\n  \"findings\": [";
    list(report.findings, out);
    out << ",\n  \"advisory_count\": " << report.advisories.size()
        << ",\n  \"advisories\": [";
    list(report.advisories, out);
    out << "\n}\n";
    return out.str();
}

} // namespace litmus::lint
