/**
 * @file
 * The JSON string escaper and number formatter shared by every
 * exporter (span dumps, Perfetto traces, the journal, query reports
 * and telemetry snapshots), so all of them write strings and numbers
 * the same way.
 */

#ifndef PCON_UTIL_JSON_H
#define PCON_UTIL_JSON_H

#include <string>
#include <string_view>

namespace pcon {
namespace util {

/**
 * Escape `s` for the inside of a JSON string literal: `"` and `\`
 * are backslash-escaped, newline, tab and carriage return take their
 * short forms (`\n`, `\t`, `\r`), and every other byte below 0x20 is
 * written as `\u00xx`. All other bytes pass through unchanged.
 */
std::string jsonEscape(std::string_view s);

/**
 * Shortest decimal rendering of `v` that parses back to the same
 * double. Integral values within (-1e15, 1e15) print plainly ("10",
 * not "1e+01"); any other value takes the fewest `%g` significant
 * digits that round-trip through strtod, 17 at most.
 */
std::string jsonNumber(double v);

} // namespace util
} // namespace pcon

#endif // PCON_UTIL_JSON_H
