#include "logging.h"

#include <iostream>

namespace pcon {
namespace util {

namespace {

/** Process-wide logging state: the threshold and per-severity
 * tallies. */
LogLevel gThreshold = LogLevel::Warn;

LogCounts gCounts;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

} // namespace

LogLevel
logThreshold()
{
    return gThreshold;
}

void
setLogThreshold(LogLevel level)
{
    gThreshold = level;
}

LogCounts
logCounts()
{
    return gCounts;
}

void
resetLogCounts()
{
    gCounts = LogCounts{};
}

void
logMessage(LogLevel level, const std::string &msg)
{
    switch (level) {
      case LogLevel::Debug: ++gCounts.debug; break;
      case LogLevel::Info: ++gCounts.info; break;
      case LogLevel::Warn: ++gCounts.warn; break;
      case LogLevel::Error: ++gCounts.error; break;
    }
    if (static_cast<int>(level) < static_cast<int>(gThreshold))
        return;
    std::cerr << "[" << levelName(level) << "] " << msg << "\n";
}

} // namespace util
} // namespace pcon
