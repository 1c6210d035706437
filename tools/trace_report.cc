/**
 * @file
 * Span-dump analysis CLI: reads a renderSpanJson() dump (see
 * docs/TRACING.md) and prints the trace report — top-N requests by
 * energy, per-stage breakdowns, critical paths, and the
 * cross-machine imbalance table.
 *
 *   trace_report spans.json [--top N] [--request ID] [--json]
 *
 * With --request only that request's breakdown and critical path are
 * printed. --json emits the same report as one machine-readable
 * pcon-trace-report-v1 document (reportJson) instead of text. Exit
 * codes: 0 ok, 1 when the dump cannot be read or parsed (the
 * diagnostic is logged), 2 on a usage error, including a --top or
 * --request value that is not a whole decimal number.
 *
 * The CLI is a thin wrapper over obs::EnergyIndex (docs/QUERIES.md):
 * it attaches an index to the reloaded collector and renders the
 * obs/report.h views. Attaching absorbs spans in id order, so the
 * output is byte-identical to the historical collector-scanning
 * report (pinned by tests/data/golden_trace_report.*).
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "obs/report.h"
#include "trace/span_json.h"
#include "util/logging.h"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <spans.json> [--top N] [--request ID] [--json]\n",
                 argv0);
    return 2;
}

/** Parse a whole unsigned decimal argument; false on anything else. */
bool
parseCount(const char *text, unsigned long long &out)
{
    const char *end = text + std::strlen(text);
    auto [ptr, ec] = std::from_chars(text, end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    std::size_t top_n = 5;
    bool json = false;
    pcon::os::RequestId request = pcon::os::NoRequest;
    for (int i = 1; i < argc; ++i) {
        unsigned long long value = 0;
        if (std::strcmp(argv[i], "--top") == 0) {
            if (i + 1 >= argc || !parseCount(argv[++i], value))
                return usage(argv[0]);
            top_n = static_cast<std::size_t>(value);
        } else if (std::strcmp(argv[i], "--request") == 0) {
            if (i + 1 >= argc || !parseCount(argv[++i], value))
                return usage(argv[0]);
            request = static_cast<pcon::os::RequestId>(value);
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (argv[i][0] == '-' || !path.empty()) {
            return usage(argv[0]);
        } else {
            path = argv[i];
        }
    }
    if (path.empty())
        return usage(argv[0]);

    std::optional<pcon::trace::SpanCollector> spans;
    try {
        spans.emplace(pcon::trace::loadSpanJson(path));
    } catch (const pcon::util::FatalError &) {
        return 1; // util::fatal has logged the diagnostic
    }
    pcon::obs::EnergyIndex index;
    index.attach(*spans);
    if (request != pcon::os::NoRequest && !json) {
        std::fputs(
            pcon::obs::reportStageBreakdown(index, request).c_str(),
            stdout);
        std::fputs("\n", stdout);
        std::fputs(
            pcon::obs::reportCriticalPath(index, request).c_str(),
            stdout);
        return 0;
    }
    pcon::obs::ReportOptions opts;
    opts.topN = top_n;
    if (json) {
        std::fputs(pcon::obs::reportJson(index, opts).c_str(),
                   stdout);
        std::fputs("\n", stdout);
        return 0;
    }
    std::fputs(pcon::obs::fullReport(index, opts).c_str(), stdout);
    return 0;
}
