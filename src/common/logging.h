/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * fatal() is for user/configuration errors (clean exit); panic() is for
 * internal invariant violations (abort); warn()/inform() report
 * conditions without stopping the run. All accept printf-style
 * formatting via std::format-like variadic composition kept simple with
 * iostream building to avoid a fmt dependency.
 */

#ifndef LITMUS_COMMON_LOGGING_H
#define LITMUS_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace litmus
{

namespace detail
{

/** Concatenate all arguments using operator<< into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

/** Emit a formed record; fatal and panic terminate the process. */
[[noreturn]] void emitFatal(const std::string &msg);
[[noreturn]] void emitPanic(const std::string &msg);
void emitWarn(const std::string &msg);
void emitInform(const std::string &msg);

} // namespace detail

/**
 * Report an unrecoverable user-facing error (bad configuration,
 * impossible experiment parameters) and exit with status 1.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emitFatal(detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an internal invariant violation (a bug in this library) and
 * abort so a debugger or core dump can capture the state.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emitPanic(detail::concat(std::forward<Args>(args)...));
}

/** Report a suspicious-but-survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emitWarn(detail::concat(std::forward<Args>(args)...));
}

/** Report normal operating status (on stderr, like every other
 *  record, so a program's stdout holds only its results). */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::emitInform(detail::concat(std::forward<Args>(args)...));
}

} // namespace litmus

#endif // LITMUS_COMMON_LOGGING_H
