/**
 * @file
 * Status and error reporting helpers in the gem5 style.
 *
 * panic() is for internal invariant violations (a bug in this library);
 * fatal() is for conditions caused by the caller (bad configuration or
 * arguments); warn()/inform() report conditions that do not stop
 * execution.
 */

#ifndef PCON_UTIL_LOGGING_H
#define PCON_UTIL_LOGGING_H

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace pcon {
namespace util {

/** Severity of a log message. */
enum class LogLevel {
    Debug,
    Info,
    Warn,
    Error,
};

/**
 * Minimum severity that is emitted to stderr. Defaults to Warn so that
 * tests and benchmarks stay quiet; experiment drivers may lower it.
 */
LogLevel logThreshold();

/** Set the minimum emitted severity. */
void setLogThreshold(LogLevel level);

/** Emit one message at the given severity (newline appended). */
void logMessage(LogLevel level, const std::string &msg);

/**
 * Process-wide per-severity counts of every logMessage() call,
 * including those below the emission threshold — a noisy run is
 * noisy whether or not anyone was watching stderr. The telemetry
 * layer publishes these as registry metrics.
 */
struct LogCounts
{
    std::uint64_t debug = 0;
    std::uint64_t info = 0;
    std::uint64_t warn = 0;
    std::uint64_t error = 0;

    /** All calls at any severity. */
    std::uint64_t total() const { return debug + info + warn + error; }
};

/** Snapshot of the current cumulative counts. */
LogCounts logCounts();

/** Zero the counts (test isolation). */
void resetLogCounts();

/** Raised by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what)
        : std::logic_error(what)
    {}
};

/** Raised by fatal(): the caller supplied an impossible configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what)
        : std::runtime_error(what)
    {}
};

namespace detail {

inline void
formatInto(std::ostringstream &)
{}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &out, const T &head, const Rest &...rest)
{
    out << head;
    formatInto(out, rest...);
}

} // namespace detail

/** Build a string by streaming all arguments together. */
template <typename... Args>
std::string
concat(const Args &...args)
{
    std::ostringstream out;
    detail::formatInto(out, args...);
    return out.str();
}

/** Report an internal bug and throw PanicError. */
template <typename... Args>
[[noreturn]] void
panic(const Args &...args)
{
    std::string msg = concat("panic: ", args...);
    logMessage(LogLevel::Error, msg);
    throw PanicError(msg);
}

/** Report a caller error and throw FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(const Args &...args)
{
    std::string msg = concat("fatal: ", args...);
    logMessage(LogLevel::Error, msg);
    throw FatalError(msg);
}

/** Report a recoverable anomaly. */
template <typename... Args>
void
warn(const Args &...args)
{
    logMessage(LogLevel::Warn, concat("warn: ", args...));
}

/** Report normal operating status. */
template <typename... Args>
void
inform(const Args &...args)
{
    logMessage(LogLevel::Info, concat("info: ", args...));
}

/** panic() unless the condition holds. */
template <typename... Args>
void
panicIf(bool condition, const Args &...args)
{
    if (condition)
        panic(args...);
}

/** fatal() unless the condition holds. */
template <typename... Args>
void
fatalIf(bool condition, const Args &...args)
{
    if (condition)
        fatal(args...);
}

} // namespace util
} // namespace pcon

#endif // PCON_UTIL_LOGGING_H
