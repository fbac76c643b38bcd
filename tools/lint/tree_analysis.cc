#include "tree_analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "lint_util.h"

namespace litmus::lint::detail
{

namespace
{

constexpr const char *kLockAnnotation = "lock-annotation";
constexpr const char *kLockOrder = "lock-order";
constexpr const char *kIncludeGraph = "include-graph";
constexpr const char *kTestOnly = "test-only";
constexpr const char *kStaleAllow = "stale-allow";

/** True when @p code references @p name: as a whole token, or, for
 *  a user-defined literal suffix such as `_KiB`, glued to a numeric
 *  literal (`640_KiB`). */
bool
referencesName(const std::string &code, const std::string &name)
{
    if (findToken(code, name, 0) != std::string::npos)
        return true;
    if (name[0] != '_')
        return false;
    for (std::size_t p = code.find(name); p != std::string::npos;
         p = code.find(name, p + 1)) {
        const std::size_t end = p + name.size();
        if (end < code.size() && isIdentChar(code[end]))
            continue;
        std::size_t b = p;
        while (b > 0 && (isIdentChar(code[b - 1]) || code[b - 1] == '.'))
            --b;
        if (b < p && std::isdigit(static_cast<unsigned char>(code[b])))
            return true;
    }
    return false;
}

bool
ruleEnabled(const Options &options, const std::string &rule)
{
    if (options.rules.empty())
        return true;
    return std::find(options.rules.begin(), options.rules.end(),
                     rule) != options.rules.end();
}

// ---------------------------------------------------------------- //
// Parsed tree representation                                       //
// ---------------------------------------------------------------- //

/** One file with its stripped shadow copy (offsets match raw). */
struct ParsedFile
{
    const SourceFile *src = nullptr;
    std::string code; ///< comments/strings blanked
    std::vector<std::string> rawLines;
    std::vector<std::string> strippedLines;
    std::vector<IncludeLine> includes;          ///< as written
    std::vector<std::string> resolvedIncludes;  ///< per include; "" when
                                                ///< not a project file
};

struct Member
{
    std::string name;
    int line = 0;
    bool guarded = false;  ///< carries LITMUS_GUARDED_BY/PT_GUARDED_BY
    std::string guardName; ///< the macro's argument
    bool isCapability = false; ///< litmus::Mutex
    bool isRawMutex = false;   ///< std::mutex family
    bool isExempt = false;     ///< self-synchronizing or a lock itself
    bool pointer = false;      ///< declared as a pointer/reference —
                               ///< names a lock, is not one itself
};

struct ClassInfo
{
    std::string name;
    std::string file; ///< defining file, root-relative
    int line = 0;
    std::size_t bodyBegin = 0; ///< offset of '{'
    std::size_t bodyEnd = 0;   ///< offset of matching '}'
    std::map<std::string, Member> members; ///< data members only
};

/** Out-of-line `Cls::method(...) { ... }` body in a .cc/.h file. */
struct MethodDef
{
    std::string className;
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;
};

/** One `MutexLock lock(&expr);`-style scope. */
struct GuardScope
{
    std::string base;      ///< "" / "this" for own members
    std::string mutexName; ///< member holding the lock
    std::size_t pos = 0;   ///< offset of the guard keyword
    std::size_t stmtEnd = 0; ///< offset just past the guard's ')'
    std::size_t scopeEnd = 0; ///< offset of the enclosing block's '}'
    int line = 0;
    const ClassInfo *guardClass = nullptr; ///< resolved owner, or null
};

std::size_t
matchBrace(const std::string &code, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
        if (code[i] == '{')
            ++depth;
        else if (code[i] == '}' && --depth == 0)
            return i;
    }
    return code.size();
}

std::string
trimCopy(const std::string &text)
{
    std::size_t b = 0, e = text.size();
    while (b < e && std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    while (e > b &&
           std::isspace(static_cast<unsigned char>(text[e - 1])))
        --e;
    return text.substr(b, e - b);
}

std::string
firstToken(const std::string &text)
{
    std::size_t b = 0;
    while (b < text.size() &&
           std::isspace(static_cast<unsigned char>(text[b])))
        ++b;
    std::size_t e = b;
    while (e < text.size() && isIdentChar(text[e]))
        ++e;
    return text.substr(b, e - b);
}

/** Type text with leading storage/cv qualifiers removed. */
std::string
baseType(const std::string &typeText)
{
    std::string rest = trimCopy(typeText);
    for (;;) {
        const std::string tok = firstToken(rest);
        if (tok == "mutable" || tok == "const" || tok == "volatile" ||
            tok == "inline" || tok == "constexpr") {
            rest = trimCopy(rest.substr(tok.size()));
            continue;
        }
        return rest;
    }
}

/** True when @p base names type @p name (boundary-checked prefix). */
bool
typeIs(const std::string &base, const std::string &name)
{
    if (base.rfind(name, 0) != 0)
        return false;
    return base.size() == name.size() ||
           !isIdentChar(base[name.size()]);
}

bool
isRawMutexType(const std::string &base)
{
    for (const char *name :
         {"std::mutex", "std::shared_mutex", "std::recursive_mutex",
          "std::timed_mutex", "std::shared_timed_mutex",
          "std::recursive_timed_mutex"}) {
        if (typeIs(base, name))
            return true;
    }
    return false;
}

bool
isCapabilityType(const std::string &base)
{
    return typeIs(base, "Mutex") || typeIs(base, "litmus::Mutex");
}

/** Members that synchronize themselves (or are locks): accessing them
 *  under a lock without a GUARDED_BY annotation is fine. */
bool
isExemptType(const std::string &base)
{
    if (isCapabilityType(base) || isRawMutexType(base))
        return true;
    for (const char *name :
         {"std::condition_variable", "std::condition_variable_any",
          "std::atomic", "std::atomic_flag", "std::thread",
          "std::jthread", "std::once_flag", "MutexLock", "UniqueLock"}) {
        if (typeIs(base, name))
            return true;
    }
    return false;
}

// ---------------------------------------------------------------- //
// Class / member indexing                                          //
// ---------------------------------------------------------------- //

/**
 * Parse the data members declared at the top level of a class body.
 * Function bodies, nested type bodies, and brace initializers are
 * skipped wholesale; what remains is split into declaration chunks at
 * ';'. The member name is the last identifier before the initializer
 * or annotation macro; chunks whose "name" is followed by '(' or sits
 * inside parentheses are function declarations and are dropped.
 */
void
parseMembers(const std::string &code, ClassInfo &cls)
{
    std::string chunk;
    std::vector<std::size_t> offsets; ///< per chunk char

    const auto reset = [&] {
        chunk.clear();
        offsets.clear();
    };

    const auto finish = [&] {
        const std::string text = chunk;
        reset();
        if (trimCopy(text).empty())
            return;
        const std::string first = firstToken(text);
        for (const char *skip :
             {"using", "friend", "typedef", "template", "static",
              "operator", "public", "private", "protected", "class",
              "struct", "union", "enum"}) {
            if (first == skip)
                return;
        }
        if (findToken(text, "operator", 0) != std::string::npos)
            return;

        // Truncate at the initializer / annotation; the name is the
        // last identifier before the cut.
        std::size_t cut = text.size();
        const std::size_t eq = text.find('=');
        if (eq != std::string::npos)
            cut = std::min(cut, eq);
        const std::size_t bracket = text.find('[');
        if (bracket != std::string::npos)
            cut = std::min(cut, bracket);
        for (std::size_t p = text.find("LITMUS_");
             p != std::string::npos; p = text.find("LITMUS_", p + 1)) {
            if (p == 0 || !isIdentChar(text[p - 1])) {
                cut = std::min(cut, p);
                break;
            }
        }
        std::string head = text.substr(0, cut);
        // `T f() const` / `T f() noexcept`: strip the trailing
        // qualifier keywords so the ')' shows and the chunk reads as
        // the function declaration it is.
        for (;;) {
            std::string trimmed = trimCopy(head);
            bool stripped = false;
            for (const char *kw :
                 {"const", "noexcept", "override", "final"}) {
                const std::size_t len = std::string(kw).size();
                if (trimmed.size() >= len &&
                    trimmed.compare(trimmed.size() - len, len, kw) ==
                        0 &&
                    (trimmed.size() == len ||
                     !isIdentChar(trimmed[trimmed.size() - len - 1]))) {
                    head = trimmed.substr(0, trimmed.size() - len);
                    stripped = true;
                    break;
                }
            }
            if (!stripped)
                break;
        }
        if (!trimCopy(head).empty() && trimCopy(head).back() == ')')
            return; // function declaration
        std::size_t e = head.size();
        while (e > 0 && !isIdentChar(head[e - 1]))
            --e;
        std::size_t b = e;
        while (b > 0 && isIdentChar(head[b - 1]))
            --b;
        if (b == e)
            return;
        const std::string name = head.substr(b, e - b);
        // A name inside parentheses is a parameter; a name followed
        // by '(' is a function. Either way, not a data member.
        int parenDepth = 0;
        for (std::size_t i = 0; i < b; ++i) {
            if (head[i] == '(')
                ++parenDepth;
            else if (head[i] == ')')
                --parenDepth;
        }
        if (parenDepth > 0)
            return;
        std::size_t after = e;
        while (after < text.size() &&
               std::isspace(static_cast<unsigned char>(text[after])))
            ++after;
        if (after < text.size() && text[after] == '(')
            return;

        Member m;
        m.name = name;
        m.line = lineOfOffset(code, offsets[b]);
        const std::string base = baseType(head.substr(0, b));
        m.isRawMutex = isRawMutexType(base);
        m.isCapability = isCapabilityType(base);
        m.isExempt = isExemptType(base);
        m.pointer = base.find('*') != std::string::npos ||
                    base.find('&') != std::string::npos;
        for (const char *macro :
             {"LITMUS_GUARDED_BY", "LITMUS_PT_GUARDED_BY"}) {
            const std::size_t at = findToken(text, macro, 0);
            if (at == std::string::npos)
                continue;
            const std::size_t open = text.find('(', at);
            const std::size_t close =
                open == std::string::npos ? std::string::npos
                                          : text.find(')', open);
            if (close == std::string::npos)
                continue;
            m.guarded = true;
            m.guardName =
                trimCopy(text.substr(open + 1, close - open - 1));
            if (!m.guardName.empty() && m.guardName[0] == '&')
                m.guardName = trimCopy(m.guardName.substr(1));
        }
        cls.members.emplace(m.name, std::move(m));
    };

    std::size_t i = cls.bodyBegin + 1;
    while (i < cls.bodyEnd) {
        const char c = code[i];
        if (c == ';') {
            finish();
            ++i;
            continue;
        }
        if (c == ':') {
            if (i + 1 < cls.bodyEnd && code[i + 1] == ':') {
                chunk += "::";
                offsets.push_back(i);
                offsets.push_back(i + 1);
                i += 2;
                continue;
            }
            const std::string sofar = trimCopy(chunk);
            if (sofar == "public" || sofar == "private" ||
                sofar == "protected") {
                reset();
                ++i;
                continue;
            }
            chunk += ':';
            offsets.push_back(i);
            ++i;
            continue;
        }
        if (c == '{') {
            std::size_t prev = chunk.size();
            while (prev > 0 &&
                   std::isspace(
                       static_cast<unsigned char>(chunk[prev - 1])))
                --prev;
            // Trailing `const`/`noexcept`/`override`/`final` between
            // the parameter list and the body still mean "function".
            std::string tail = trimCopy(chunk);
            for (;;) {
                bool stripped = false;
                for (const char *kw :
                     {"const", "noexcept", "override", "final"}) {
                    const std::size_t len = std::string(kw).size();
                    if (tail.size() >= len &&
                        tail.compare(tail.size() - len, len, kw) == 0 &&
                        (tail.size() == len ||
                         !isIdentChar(tail[tail.size() - len - 1]))) {
                        tail = trimCopy(
                            tail.substr(0, tail.size() - len));
                        stripped = true;
                    }
                }
                if (!stripped)
                    break;
            }
            const std::size_t close = matchBrace(code, i);
            const std::string first = firstToken(chunk);
            if (first == "class" || first == "struct" ||
                first == "union" || first == "enum") {
                // Nested type: its own scan indexes it. Text between
                // '}' and ';' (an anonymous-type member) starts a new
                // chunk.
                reset();
                i = close + 1;
                continue;
            }
            if (!tail.empty() && tail.back() == ')') {
                // Function definition; a ';' is optional after it.
                reset();
                i = skipSpace(code, close + 1);
                if (i < cls.bodyEnd && code[i] == ';')
                    ++i;
                continue;
            }
            // Brace initializer: the chunk already has the name.
            i = close + 1;
            continue;
        }
        chunk += c;
        offsets.push_back(i);
        ++i;
    }
    finish();
}

/**
 * Index every class/struct definition in @p code. The name is the
 * last plain identifier between the keyword and the body (skipping
 * attribute-macro invocations like LITMUS_CAPABILITY("mutex")); a ';'
 * first means forward declaration, another class-keyword first means
 * we were inside a template parameter list.
 */
void
scanClasses(const std::string &file, const std::string &code,
            std::vector<ClassInfo> &out)
{
    for (const char *keyword : {"class", "struct"}) {
        for (std::size_t pos = findToken(code, keyword, 0);
             pos != std::string::npos;
             pos = findToken(code, keyword, pos + 1)) {
            // `enum class` / `enum struct` are not classes.
            {
                std::size_t q = pos;
                while (q > 0 && std::isspace(static_cast<unsigned char>(
                                    code[q - 1])))
                    --q;
                std::size_t b = q;
                while (b > 0 && isIdentChar(code[b - 1]))
                    --b;
                if (code.compare(b, q - b, "enum") == 0 && q > b)
                    continue;
            }
            std::size_t i = pos + std::string(keyword).size();
            std::string name;
            bool abort = false;
            while (i < code.size()) {
                i = skipSpace(code, i);
                if (i >= code.size())
                    break;
                const char c = code[i];
                if (c == '{' || c == ';')
                    break;
                if (c == ':' &&
                    (i + 1 >= code.size() || code[i + 1] != ':'))
                    break; // base-clause: name is already set
                if (c == '<') {
                    int depth = 0;
                    for (; i < code.size(); ++i) {
                        if (code[i] == '<')
                            ++depth;
                        else if (code[i] == '>' && --depth == 0) {
                            ++i;
                            break;
                        }
                    }
                    continue;
                }
                if (isIdentChar(c)) {
                    std::size_t e = i;
                    while (e < code.size() && isIdentChar(code[e]))
                        ++e;
                    const std::string ident = code.substr(i, e - i);
                    if (ident == "class" || ident == "struct" ||
                        ident == "union" || ident == "enum") {
                        abort = true; // template parameter list
                        break;
                    }
                    const std::size_t after = skipSpace(code, e);
                    if (after < code.size() && code[after] == '(') {
                        // attribute macro invocation — skip its args
                        int depth = 0;
                        i = after;
                        for (; i < code.size(); ++i) {
                            if (code[i] == '(')
                                ++depth;
                            else if (code[i] == ')' && --depth == 0) {
                                ++i;
                                break;
                            }
                        }
                        continue;
                    }
                    if (ident != "final" && ident != "alignas")
                        name = ident;
                    i = e;
                    continue;
                }
                ++i; // stray punctuation (e.g. '::' handled above)
            }
            if (abort || i >= code.size() || name.empty())
                continue;
            if (code[i] == ';')
                continue; // forward declaration
            if (code[i] == ':')
                i = code.find('{', i);
            if (i == std::string::npos || i >= code.size() ||
                code[i] != '{')
                continue;
            ClassInfo cls;
            cls.name = name;
            cls.file = file;
            cls.line = lineOfOffset(code, pos);
            cls.bodyBegin = i;
            cls.bodyEnd = matchBrace(code, i);
            parseMembers(code, cls);
            out.push_back(std::move(cls));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const ClassInfo &a, const ClassInfo &b) {
                  return a.bodyBegin < b.bodyBegin;
              });
}

/**
 * Out-of-line method bodies: `X::y(...) ... {`. X must be an indexed
 * class (this filters std::sort(...) calls and the like), and the
 * parameter list must be followed — possibly after cv-qualifiers,
 * annotation macros, or a constructor init list — by a body.
 */
void
scanMethodDefs(const std::string &code,
               const std::set<std::string> &classNames,
               std::vector<MethodDef> &out)
{
    for (std::size_t pos = code.find("::"); pos != std::string::npos;
         pos = code.find("::", pos + 1)) {
        std::size_t b = pos;
        while (b > 0 && isIdentChar(code[b - 1]))
            --b;
        if (b == pos)
            continue;
        const std::string cls = code.substr(b, pos - b);
        if (!classNames.count(cls))
            continue;
        std::size_t m = pos + 2;
        if (m < code.size() && code[m] == '~')
            ++m; // destructor
        std::size_t e = m;
        while (e < code.size() && isIdentChar(code[e]))
            ++e;
        if (e == m)
            continue;
        std::size_t p = skipSpace(code, e);
        if (p >= code.size() || code[p] != '(')
            continue;
        // Matching ')' of the parameter list.
        int depth = 0;
        for (; p < code.size(); ++p) {
            if (code[p] == '(')
                ++depth;
            else if (code[p] == ')' && --depth == 0) {
                ++p;
                break;
            }
        }
        // Walk decorations until the body (or bail at ';' — a mere
        // declaration/call).
        bool body = false;
        while (p < code.size()) {
            p = skipSpace(code, p);
            if (p >= code.size())
                break;
            const char c = code[p];
            if (c == '{') {
                body = true;
                break;
            }
            if (c == ';')
                break;
            if (c == ':') {
                // ctor init list: runs to the body's '{' (paren-
                // balanced; paren-init only in this tree).
                int d = 0;
                ++p;
                while (p < code.size()) {
                    if (code[p] == '(')
                        ++d;
                    else if (code[p] == ')')
                        --d;
                    else if (code[p] == '{' && d == 0)
                        break;
                    ++p;
                }
                continue;
            }
            if (isIdentChar(c)) {
                std::size_t q = p;
                while (q < code.size() && isIdentChar(code[q]))
                    ++q;
                const std::size_t after = skipSpace(code, q);
                if (after < code.size() && code[after] == '(') {
                    int d = 0;
                    p = after;
                    for (; p < code.size(); ++p) {
                        if (code[p] == '(')
                            ++d;
                        else if (code[p] == ')' && --d == 0) {
                            ++p;
                            break;
                        }
                    }
                } else {
                    p = q;
                }
                continue;
            }
            break; // operator definitions etc. — not interesting
        }
        if (!body)
            continue;
        MethodDef def;
        def.className = cls;
        def.bodyBegin = p;
        def.bodyEnd = matchBrace(code, p);
        out.push_back(std::move(def));
    }
}

// ---------------------------------------------------------------- //
// Guard scopes                                                     //
// ---------------------------------------------------------------- //

/** Offset of the '}' closing the block @p pos sits in. */
std::size_t
enclosingBlockEnd(const std::string &code, std::size_t pos)
{
    int depth = 0;
    for (std::size_t i = pos; i < code.size(); ++i) {
        if (code[i] == '{')
            ++depth;
        else if (code[i] == '}' && --depth < 0)
            return i;
    }
    return code.size();
}

/** Split a lock argument (`&reg.mutex`, `mutex_`, `&this->mu`) into
 *  base ("" for own members) and member name; false when it is not a
 *  plain member path. */
bool
splitLockArg(const std::string &argRaw, std::string &base,
             std::string &member)
{
    std::string arg = trimCopy(argRaw);
    if (!arg.empty() && arg[0] == '&')
        arg = trimCopy(arg.substr(1));
    if (arg.empty())
        return false;
    std::size_t cut = std::string::npos;
    const std::size_t dot = arg.rfind('.');
    const std::size_t arrow = arg.rfind("->");
    std::size_t baseEnd = 0, memberBegin = 0;
    if (dot != std::string::npos &&
        (arrow == std::string::npos || dot > arrow + 1)) {
        cut = dot;
        baseEnd = dot;
        memberBegin = dot + 1;
    } else if (arrow != std::string::npos) {
        cut = arrow;
        baseEnd = arrow;
        memberBegin = arrow + 2;
    }
    if (cut == std::string::npos) {
        base.clear();
        member = arg;
    } else {
        base = trimCopy(arg.substr(0, baseEnd));
        member = trimCopy(arg.substr(memberBegin));
    }
    if (base == "this")
        base.clear();
    const auto plainIdent = [](const std::string &s) {
        if (s.empty())
            return false;
        for (char c : s) {
            if (!isIdentChar(c))
                return false;
        }
        return true;
    };
    if (!plainIdent(member))
        return false;
    if (!base.empty() && !plainIdent(base))
        return false;
    return true;
}

void
scanGuardScopes(const std::string &code, std::vector<GuardScope> &out)
{
    struct Keyword
    {
        const char *token;
        bool templated; ///< std::lock_guard<...> form
    };
    for (const Keyword &kw : {Keyword{"MutexLock", false},
                              Keyword{"UniqueLock", false},
                              Keyword{"lock_guard", true},
                              Keyword{"unique_lock", true},
                              Keyword{"scoped_lock", true}}) {
        for (std::size_t pos = findToken(code, kw.token, 0);
             pos != std::string::npos;
             pos = findToken(code, kw.token, pos + 1)) {
            std::size_t i =
                skipSpace(code, pos + std::string(kw.token).size());
            if (kw.templated) {
                if (i >= code.size() || code[i] != '<')
                    continue;
                int depth = 0;
                for (; i < code.size(); ++i) {
                    if (code[i] == '<')
                        ++depth;
                    else if (code[i] == '>' && --depth == 0) {
                        ++i;
                        break;
                    }
                }
                i = skipSpace(code, i);
            }
            // Variable name, then the constructor argument. A '('
            // right after the type is a temporary or a declaration's
            // parameter list — not a scoped guard.
            std::size_t e = i;
            while (e < code.size() && isIdentChar(code[e]))
                ++e;
            if (e == i)
                continue;
            std::size_t open = skipSpace(code, e);
            if (open >= code.size() || code[open] != '(')
                continue;
            int depth = 0;
            std::size_t close = open;
            for (; close < code.size(); ++close) {
                if (code[close] == '(')
                    ++depth;
                else if (code[close] == ')' && --depth == 0)
                    break;
            }
            if (close >= code.size())
                continue;
            GuardScope scope;
            if (!splitLockArg(code.substr(open + 1, close - open - 1),
                              scope.base, scope.mutexName))
                continue;
            scope.pos = pos;
            scope.stmtEnd = close + 1;
            scope.scopeEnd = enclosingBlockEnd(code, pos);
            scope.line = lineOfOffset(code, pos);
            out.push_back(std::move(scope));
        }
    }
    std::sort(out.begin(), out.end(),
              [](const GuardScope &a, const GuardScope &b) {
                  return a.pos < b.pos;
              });
}

/** Preceded by '.', '->', or any '::' — not a bare member access. */
bool
qualifiedAny(const std::string &code, std::size_t pos)
{
    std::size_t i = pos;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(code[i - 1])))
        --i;
    if (i == 0)
        return false;
    if (code[i - 1] == '.')
        return true;
    if (i >= 2 && code[i - 2] == '-' && code[i - 1] == '>')
        return true;
    if (i >= 2 && code[i - 2] == ':' && code[i - 1] == ':')
        return true;
    return false;
}

// ---------------------------------------------------------------- //
// Lock identity & graph                                            //
// ---------------------------------------------------------------- //

std::string
lockId(const ClassInfo &cls, const std::string &member)
{
    return cls.file + ":" + cls.name + "::" + member;
}

struct LockEdge
{
    std::string outer; ///< lockId held
    std::string inner; ///< lockId acquired under it
    std::string file;  ///< nesting site
    int line = 0;
    std::string outerName, innerName; ///< bare member names
};

/** True when @p to is reachable from @p from via >= 1 edge. */
bool
reaches(const std::map<std::string, std::set<std::string>> &adj,
        const std::string &from, const std::string &to)
{
    std::set<std::string> seen;
    std::vector<std::string> stack;
    const auto it = adj.find(from);
    if (it == adj.end())
        return false;
    for (const std::string &n : it->second)
        stack.push_back(n);
    while (!stack.empty()) {
        const std::string node = stack.back();
        stack.pop_back();
        if (node == to)
            return true;
        if (!seen.insert(node).second)
            continue;
        const auto nit = adj.find(node);
        if (nit == adj.end())
            continue;
        for (const std::string &n : nit->second)
            stack.push_back(n);
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------- //
// The pass                                                         //
// ---------------------------------------------------------------- //

void
runTreeAnalysis(const std::vector<SourceFile> &files,
                const Options &options, Report &report)
{
    // ---- parse every file once -------------------------------- //
    std::vector<ParsedFile> parsed(files.size());
    std::set<std::string> fileSet;
    for (const SourceFile &f : files)
        fileSet.insert(f.path);
    for (std::size_t i = 0; i < files.size(); ++i) {
        ParsedFile &pf = parsed[i];
        pf.src = &files[i];
        pf.code = stripCommentsAndStrings(files[i].content);
        pf.rawLines = splitLines(files[i].content);
        pf.strippedLines = splitLines(pf.code);
        pf.includes = parseIncludes(pf.rawLines);
        const std::string &path = files[i].path;
        const std::size_t slash = path.find_last_of('/');
        const std::string dir =
            slash == std::string::npos ? "" : path.substr(0, slash);
        for (const IncludeLine &inc : pf.includes) {
            std::string resolved;
            for (const std::string &cand :
                 {"src/" + inc.target,
                  dir.empty() ? inc.target : dir + "/" + inc.target,
                  inc.target}) {
                if (fileSet.count(cand)) {
                    resolved = cand;
                    break;
                }
            }
            pf.resolvedIncludes.push_back(resolved);
        }
    }

    // ---- class & member index --------------------------------- //
    std::vector<std::vector<ClassInfo>> classesByFile(files.size());
    std::set<std::string> classNames;
    for (std::size_t i = 0; i < files.size(); ++i) {
        scanClasses(files[i].path, parsed[i].code, classesByFile[i]);
        for (const ClassInfo &cls : classesByFile[i])
            classNames.insert(cls.name);
    }

    std::vector<Finding> found;     ///< tree-rule findings (pre-pragma)
    std::vector<Finding> advisories;

    // ---- lock-annotation part A: raw mutex members in src/ ----- //
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (files[i].path.rfind("src/", 0) != 0)
            continue;
        for (const ClassInfo &cls : classesByFile[i]) {
            for (const auto &[name, m] : cls.members) {
                if (!m.isRawMutex)
                    continue;
                found.push_back(
                    {files[i].path, m.line, kLockAnnotation,
                     "raw std::mutex member '" + name + "' in " +
                         cls.name +
                         " — use litmus::Mutex (common/mutex.h) so "
                         "the lock is a capability the analysis can "
                         "see"});
            }
        }
    }

    // ---- guard scopes, lock-annotation part B, lock edges ------ //
    std::set<std::string> lockNodes; ///< all capability members, src/
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (files[i].path.rfind("src/", 0) != 0)
            continue;
        for (const ClassInfo &cls : classesByFile[i]) {
            for (const auto &[name, m] : cls.members) {
                if (m.isCapability && !m.pointer)
                    lockNodes.insert(lockId(cls, name));
            }
        }
    }

    std::vector<LockEdge> edges;
    for (std::size_t i = 0; i < files.size(); ++i) {
        const std::string &path = files[i].path;
        if (path.rfind("src/", 0) != 0)
            continue;
        const ParsedFile &pf = parsed[i];
        const std::vector<ClassInfo> &ownClasses = classesByFile[i];

        std::vector<GuardScope> scopes;
        scanGuardScopes(pf.code, scopes);
        if (scopes.empty())
            continue;

        std::vector<MethodDef> methods;
        scanMethodDefs(pf.code, classNames, methods);

        // Classes visible for `base.member` resolution: this file's,
        // then those of directly-included project files.
        std::vector<const ClassInfo *> visible;
        for (const ClassInfo &cls : ownClasses)
            visible.push_back(&cls);
        for (const std::string &inc : pf.resolvedIncludes) {
            if (inc.empty())
                continue;
            for (std::size_t j = 0; j < files.size(); ++j) {
                if (files[j].path != inc)
                    continue;
                for (const ClassInfo &cls : classesByFile[j])
                    visible.push_back(&cls);
            }
        }

        const auto hasLockMember = [](const ClassInfo &cls,
                                      const std::string &name) {
            const auto it = cls.members.find(name);
            return it != cls.members.end() &&
                   (it->second.isCapability || it->second.isRawMutex);
        };

        for (GuardScope &scope : scopes) {
            if (scope.base.empty()) {
                // Own member: innermost enclosing class body, else
                // the out-of-line method's class; outer candidates
                // are tried when the inner one lacks the mutex.
                std::vector<const ClassInfo *> candidates;
                for (const ClassInfo &cls : ownClasses) {
                    if (cls.bodyBegin < scope.pos &&
                        scope.pos < cls.bodyEnd)
                        candidates.push_back(&cls);
                }
                std::reverse(candidates.begin(),
                             candidates.end()); // innermost first
                for (const MethodDef &def : methods) {
                    if (def.bodyBegin < scope.pos &&
                        scope.pos < def.bodyEnd) {
                        for (const ClassInfo *cls : visible) {
                            if (cls->name == def.className)
                                candidates.push_back(cls);
                        }
                    }
                }
                for (const ClassInfo *cls : candidates) {
                    if (hasLockMember(*cls, scope.mutexName)) {
                        scope.guardClass = cls;
                        break;
                    }
                }
            } else {
                // `obj.member`: the unique visible class with a lock
                // member of that name; ambiguity stays silent.
                const ClassInfo *match = nullptr;
                bool ambiguous = false;
                for (const ClassInfo *cls : visible) {
                    if (!hasLockMember(*cls, scope.mutexName))
                        continue;
                    if (match && match != cls &&
                        !(match->file == cls->file &&
                          match->bodyBegin == cls->bodyBegin)) {
                        ambiguous = true;
                        break;
                    }
                    match = cls;
                }
                if (!ambiguous)
                    scope.guardClass = match;
            }
        }

        // Part B: members touched in scope must be guarded by the
        // scope's mutex. One finding per (scope, member).
        for (const GuardScope &scope : scopes) {
            if (!scope.guardClass)
                continue;
            const ClassInfo &cls = *scope.guardClass;
            std::set<std::string> flagged;
            const auto check = [&](const Member &m, std::size_t at) {
                if (m.isExempt || m.name == scope.mutexName)
                    return;
                if (m.guarded && m.guardName == scope.mutexName)
                    return;
                // Nested locks: the access is fine when any guard
                // scope covering it holds the member's own mutex.
                if (m.guarded) {
                    for (const GuardScope &other : scopes) {
                        if (other.guardClass == scope.guardClass &&
                            other.mutexName == m.guardName &&
                            other.stmtEnd <= at &&
                            at < other.scopeEnd)
                            return;
                    }
                }
                if (!flagged.insert(m.name).second)
                    return;
                std::string msg =
                    "member '" + m.name + "' of " + cls.name +
                    " is touched under a lock on '" +
                    scope.mutexName + "' but is not LITMUS_GUARDED_BY(" +
                    scope.mutexName + ")";
                if (m.guarded)
                    msg += " (it is declared LITMUS_GUARDED_BY(" +
                           m.guardName + "))";
                found.push_back({path, lineOfOffset(pf.code, at),
                                 kLockAnnotation, msg});
            };
            if (scope.base.empty()) {
                for (const auto &[name, m] : cls.members) {
                    for (std::size_t at = findToken(pf.code, name,
                                                    scope.stmtEnd);
                         at != std::string::npos &&
                         at < scope.scopeEnd;
                         at = findToken(pf.code, name, at + 1)) {
                        if (qualifiedAny(pf.code, at))
                            continue;
                        check(m, at);
                    }
                }
            } else {
                for (std::size_t at = findToken(pf.code, scope.base,
                                                scope.stmtEnd);
                     at != std::string::npos && at < scope.scopeEnd;
                     at = findToken(pf.code, scope.base, at + 1)) {
                    std::size_t m = at + scope.base.size();
                    if (m < pf.code.size() && pf.code[m] == '.')
                        ++m;
                    else if (m + 1 < pf.code.size() &&
                             pf.code[m] == '-' && pf.code[m + 1] == '>')
                        m += 2;
                    else
                        continue;
                    std::size_t e = m;
                    while (e < pf.code.size() &&
                           isIdentChar(pf.code[e]))
                        ++e;
                    const auto it =
                        cls.members.find(pf.code.substr(m, e - m));
                    if (it == cls.members.end())
                        continue; // method or unknown
                    check(it->second, at);
                }
            }
        }

        // Lock-order edges: a guard starting inside another live
        // guard's scope nests inner under outer.
        for (std::size_t a = 0; a < scopes.size(); ++a) {
            const GuardScope &outer = scopes[a];
            if (!outer.guardClass)
                continue;
            for (std::size_t b = a + 1; b < scopes.size(); ++b) {
                const GuardScope &inner = scopes[b];
                if (!inner.guardClass)
                    continue;
                if (inner.pos >= outer.scopeEnd)
                    break;
                LockEdge edge;
                edge.outer =
                    lockId(*outer.guardClass, outer.mutexName);
                edge.inner =
                    lockId(*inner.guardClass, inner.mutexName);
                if (edge.outer == edge.inner)
                    continue;
                edge.file = path;
                edge.line = inner.line;
                edge.outerName = outer.mutexName;
                edge.innerName = inner.mutexName;
                lockNodes.insert(edge.outer);
                lockNodes.insert(edge.inner);
                edges.push_back(std::move(edge));
            }
        }
    }

    // ---- lock-order: cycles + canonical order ------------------ //
    std::map<std::string, std::set<std::string>> lockAdj;
    for (const LockEdge &edge : edges)
        lockAdj[edge.outer].insert(edge.inner);

    for (const LockEdge &edge : edges) {
        if (!reaches(lockAdj, edge.inner, edge.outer))
            continue;
        found.push_back(
            {edge.file, edge.line, kLockOrder,
             "lock-order cycle: '" + edge.innerName + "' (" +
                 edge.inner + ") is acquired while '" +
                 edge.outerName + "' (" + edge.outer +
                 ") is held, and the reverse nesting exists elsewhere "
                 "in the tree — pick one canonical order"});
    }

    {
        // Kahn's algorithm, lexicographic tie-break: smallest ready
        // node first. Cycle members cannot become ready and are
        // appended under a comment.
        std::map<std::string, int> indegree;
        for (const std::string &node : lockNodes)
            indegree[node] = 0;
        for (const auto &[outer, inners] : lockAdj) {
            for (const std::string &inner : inners) {
                if (indegree.count(inner))
                    ++indegree[inner];
            }
        }
        std::vector<std::string> order;
        std::set<std::string> ready, done;
        for (const auto &[node, deg] : indegree) {
            if (deg == 0)
                ready.insert(node);
        }
        while (!ready.empty()) {
            const std::string node = *ready.begin();
            ready.erase(ready.begin());
            order.push_back(node);
            done.insert(node);
            const auto it = lockAdj.find(node);
            if (it == lockAdj.end())
                continue;
            for (const std::string &next : it->second) {
                if (indegree.count(next) && --indegree[next] == 0)
                    ready.insert(next);
            }
        }
        std::ostringstream text;
        text << "# litmus canonical lock order (generated by "
                "litmus_lint)\n"
             << "# verify : litmus_lint --root . --lock-order "
                "tools/lint/lock_order.txt\n"
             << "# refresh: litmus_lint --root . --lock-order "
                "tools/lint/lock_order.txt --update-lock-order\n"
             << "# A lock may only be acquired while holding locks "
                "listed ABOVE it.\n"
             << "# identity: <defining-file>:<Class>::<member>\n";
        for (const std::string &node : order)
            text << node << "\n";
        if (done.size() != lockNodes.size()) {
            text << "# unorderable (lock-order cycle):\n";
            for (const std::string &node : lockNodes) {
                if (!done.count(node))
                    text << node << "\n";
            }
        }
        text << "# observed nestings (outer -> inner):\n";
        std::set<std::string> nestings;
        for (const LockEdge &edge : edges)
            nestings.insert("#   " + edge.outer + " -> " + edge.inner);
        if (nestings.empty())
            text << "#   (none)\n";
        for (const std::string &line : nestings)
            text << line << "\n";
        report.lockOrderText = text.str();
    }

    if (!options.lockOrderFile.empty() &&
        options.lockOrderExpected != report.lockOrderText) {
        found.push_back(
            {options.lockOrderFile, 1, kLockOrder,
             "canonical lock-order file does not match the lock "
             "graph derived from the code — refresh it with "
             "litmus_lint --update-lock-order"});
    }

    // ---- include-graph: cycles, advisories, exports ------------ //
    std::map<std::string, std::set<std::string>> incAdj;
    struct IncEdge
    {
        std::string from, to;
        int line;
    };
    std::vector<IncEdge> incEdges;
    for (std::size_t i = 0; i < files.size(); ++i) {
        const ParsedFile &pf = parsed[i];
        for (std::size_t k = 0; k < pf.includes.size(); ++k) {
            const std::string &to = pf.resolvedIncludes[k];
            if (to.empty() || to == files[i].path)
                continue;
            incAdj[files[i].path].insert(to);
            incEdges.push_back(
                {files[i].path, to, pf.includes[k].line});
        }
    }

    for (const IncEdge &edge : incEdges) {
        if (!reaches(incAdj, edge.to, edge.from))
            continue;
        found.push_back(
            {edge.from, edge.line, kIncludeGraph,
             "circular #include: '" + edge.to +
                 "' includes its way back to '" + edge.from +
                 "' — break the cycle (forward-declare, or split the "
                 "header)"});
    }

    // Advisory: an include of a project header none of whose provided
    // names appear in this file. "Provided" deliberately
    // over-approximates — classes, anything called or declared with a
    // '(', using-aliases, enumerators' enclosing enums, #define'd
    // macros — so a header used only for a free function or a macro
    // is never flagged. Headers providing nothing nameable are
    // skipped.
    std::map<std::string, std::size_t> fileIndex;
    for (std::size_t j = 0; j < files.size(); ++j)
        fileIndex[files[j].path] = j;
    std::map<std::string, std::set<std::string>> providedByFile;
    const auto providedNames =
        [&](std::size_t j) -> const std::set<std::string> & {
        auto it = providedByFile.find(files[j].path);
        if (it != providedByFile.end())
            return it->second;
        std::set<std::string> names;
        for (const ClassInfo &cls : classesByFile[j])
            names.insert(cls.name);
        const std::string &code = parsed[j].code;
        static const std::set<std::string> kNotProviders = {
            "if",     "for",    "while",  "switch",  "return",
            "sizeof", "catch",  "assert", "static_cast",
            "alignof", "decltype", "defined"};
        for (std::size_t p = code.find('('); p != std::string::npos;
             p = code.find('(', p + 1)) {
            std::size_t e = p;
            while (e > 0 && std::isspace(
                                static_cast<unsigned char>(code[e - 1])))
                --e;
            std::size_t b = e;
            while (b > 0 && isIdentChar(code[b - 1]))
                --b;
            if (b == e)
                continue;
            const std::string name = code.substr(b, e - b);
            if (!kNotProviders.count(name) &&
                !std::isdigit(static_cast<unsigned char>(name[0])))
                names.insert(name);
        }
        for (const char *kw : {"using", "enum"}) {
            for (std::size_t p = findToken(code, kw, 0);
                 p != std::string::npos;
                 p = findToken(code, kw, p + 1)) {
                std::size_t b =
                    skipSpace(code, p + std::string(kw).size());
                std::size_t e = b;
                while (e < code.size() && isIdentChar(code[e]))
                    ++e;
                const std::string name = code.substr(b, e - b);
                if (name == "class" || name == "struct" ||
                    name == "namespace") {
                    b = skipSpace(code, e);
                    e = b;
                    while (e < code.size() && isIdentChar(code[e]))
                        ++e;
                }
                if (e > b)
                    names.insert(code.substr(b, e - b));
            }
        }
        for (const std::string &line : parsed[j].rawLines) {
            const std::size_t hash = line.find_first_not_of(" \t");
            if (hash == std::string::npos || line[hash] != '#')
                continue;
            std::size_t p = skipSpace(line, hash + 1);
            if (line.compare(p, 6, "define") != 0)
                continue;
            p = skipSpace(line, p + 6);
            std::size_t e = p;
            while (e < line.size() && isIdentChar(line[e]))
                ++e;
            if (e > p)
                names.insert(line.substr(p, e - p));
        }
        return providedByFile
            .emplace(files[j].path, std::move(names))
            .first->second;
    };
    for (const IncEdge &edge : incEdges) {
        const auto targetIt = fileIndex.find(edge.to);
        const auto fromIt = fileIndex.find(edge.from);
        if (targetIt == fileIndex.end() || fromIt == fileIndex.end())
            continue;
        const std::set<std::string> &provided =
            providedNames(targetIt->second);
        if (provided.empty())
            continue;
        const std::string &fromCode = parsed[fromIt->second].code;
        const bool used = std::any_of(
            provided.begin(), provided.end(),
            [&](const std::string &name) {
                return referencesName(fromCode, name);
            });
        if (used)
            continue;
        // Blocking in the library, where an unused include is a false
        // dependency edge; a hygiene note everywhere else.
        const bool inSrc = edge.from.rfind("src/", 0) == 0;
        (inSrc ? found : advisories)
            .push_back({edge.from, edge.line, kIncludeGraph,
                        "include of '" + edge.to +
                            "' looks unused — nothing it declares is "
                            "referenced here" +
                            (inSrc ? "" : " (advisory)")});
    }

    // ---- test-only: src/ headers no other scanned file includes - //
    // Tests and examples are not scanned, so a header that only they
    // (and its own .cc) include is a capability the product never
    // uses. Reported at the first code line, where a bare ALLOW
    // pragma above it can record why the header stays.
    for (std::size_t j = 0; j < files.size(); ++j) {
        const std::string &header = files[j].path;
        if (header.rfind("src/", 0) != 0 ||
            header.compare(header.size() - 2, 2, ".h") != 0)
            continue;
        const std::string ownCc =
            header.substr(0, header.size() - 2) + ".cc";
        const bool included = std::any_of(
            incEdges.begin(), incEdges.end(), [&](const IncEdge &edge) {
                return edge.to == header && edge.from != ownCc;
            });
        if (included)
            continue;
        const std::vector<std::string> &lines = parsed[j].strippedLines;
        const auto firstCode = std::find_if(
            lines.begin(), lines.end(), [](const std::string &line) {
                return line.find_first_not_of(" \t") != std::string::npos;
            });
        const int line =
            firstCode == lines.end()
                ? 1
                : static_cast<int>(firstCode - lines.begin()) + 1;
        found.push_back(
            {header, line, kTestOnly,
             "no scanned file includes this header except its own "
             ".cc — only tests or examples use it; delete it with "
             "its tests, or give it a product caller"});
    }

    {
        const auto layerOf = [](const std::string &path) {
            if (path.rfind("src/", 0) == 0) {
                const std::size_t slash = path.find('/', 4);
                if (slash != std::string::npos)
                    return path.substr(4, slash - 4);
            }
            const std::size_t slash = path.find('/');
            return slash == std::string::npos ? path
                                              : path.substr(0, slash);
        };
        std::ostringstream json;
        json << "{\n  \"nodes\": [";
        bool first = true;
        for (const SourceFile &f : files) {
            json << (first ? "" : ",") << "\n    {\"id\": \"" << f.path
                 << "\", \"layer\": \"" << layerOf(f.path) << "\"}";
            first = false;
        }
        json << (files.empty() ? "]" : "\n  ]") << ",\n  \"edges\": [";
        std::vector<IncEdge> sorted = incEdges;
        std::sort(sorted.begin(), sorted.end(),
                  [](const IncEdge &a, const IncEdge &b) {
                      if (a.from != b.from)
                          return a.from < b.from;
                      if (a.line != b.line)
                          return a.line < b.line;
                      return a.to < b.to;
                  });
        first = true;
        for (const IncEdge &edge : sorted) {
            json << (first ? "" : ",") << "\n    {\"from\": \""
                 << edge.from << "\", \"to\": \"" << edge.to
                 << "\", \"line\": " << edge.line << "}";
            first = false;
        }
        json << (sorted.empty() ? "]" : "\n  ]") << "\n}\n";
        report.includeGraphJson = json.str();

        std::ostringstream dot;
        dot << "digraph litmus_includes {\n  rankdir=LR;\n";
        for (const IncEdge &edge : sorted) {
            dot << "  \"" << edge.from << "\" -> \"" << edge.to
                << "\";\n";
        }
        dot << "}\n";
        report.includeGraphDot = dot.str();
    }

    // ---- tree-rule pragma resolution --------------------------- //
    // The per-file pass validated pragma syntax and handled per-file
    // rules; here the pragmas naming cross-file rules suppress tree
    // findings, and unused ones become stale-allow. (Pragma carries
    // no file field, so pair each with its file.)
    std::vector<std::pair<std::string, Pragma>> treePragmas;
    for (std::size_t i = 0; i < files.size(); ++i) {
        std::vector<Finding> sink;
        for (const Pragma &pragma :
             collectPragmas(files[i].path, parsed[i].rawLines,
                            parsed[i].strippedLines, "bad-allow",
                            sink)) {
            if (isTreeRule(pragma.rule))
                treePragmas.emplace_back(files[i].path, pragma);
        }
    }

    std::vector<Finding> kept;
    for (Finding &finding : found) {
        if (!ruleEnabled(options, finding.rule))
            continue;
        bool drop = false;
        for (auto &[file, pragma] : treePragmas) {
            if (!pragma.used && file == finding.file &&
                pragma.rule == finding.rule &&
                pragma.targetLine == finding.line) {
                pragma.used = true;
                drop = true;
                ++report.suppressions;
                break;
            }
        }
        if (!drop)
            kept.push_back(std::move(finding));
    }
    for (const auto &[file, pragma] : treePragmas) {
        if (pragma.used || !ruleEnabled(options, pragma.rule))
            continue;
        if (!ruleEnabled(options, kStaleAllow))
            continue;
        kept.push_back(
            {file, pragma.pragmaLine, kStaleAllow,
             "LITMUS-LINT-ALLOW(" + pragma.rule +
                 ") suppresses nothing — remove the stale pragma"});
    }

    report.findings.insert(report.findings.end(), kept.begin(),
                           kept.end());
    for (Finding &advisory : advisories) {
        if (ruleEnabled(options, kIncludeGraph))
            report.advisories.push_back(std::move(advisory));
    }
}

} // namespace litmus::lint::detail
