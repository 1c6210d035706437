/**
 * @file
 * Shared console-output helpers for the experiment drivers: fixed
 * width tables and headers matching the paper's figure/table layout.
 */

#ifndef PCON_BENCH_BENCH_UTIL_H
#define PCON_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "util/csv.h"

namespace pcon {
namespace bench {

/**
 * Optional CSV sink: when the PCON_CSV_DIR environment variable is
 * set, rows written here land in <dir>/<name>.csv alongside the
 * console output; otherwise every call is a no-op. Lets downstream
 * users regenerate the paper's figures from machine-readable data.
 */
class CsvSink
{
  public:
    explicit CsvSink(const std::string &name)
    {
        const char *dir = std::getenv("PCON_CSV_DIR");
        if (dir != nullptr && *dir != '\0')
            writer_.emplace(std::string(dir) + "/" + name + ".csv");
    }

    /** True when rows are actually being written. */
    bool enabled() const { return writer_.has_value(); }

    /** Write one row (no-op when disabled). */
    template <typename... Args>
    void
    row(const Args &...args)
    {
        if (writer_)
            writer_->row(args...);
    }

  private:
    std::optional<util::CsvWriter> writer_;
};

/** Print a boxed experiment header. */
inline void
header(const std::string &title, const std::string &subtitle = "")
{
    std::string bar(72, '=');
    std::printf("%s\n%s\n", bar.c_str(), title.c_str());
    if (!subtitle.empty())
        std::printf("%s\n", subtitle.c_str());
    std::printf("%s\n", bar.c_str());
}

/** Print a section separator. */
inline void
section(const std::string &title)
{
    std::string bar(72, '-');
    std::printf("%s\n%s\n%s\n", bar.c_str(), title.c_str(),
                bar.c_str());
}

/** Print one row of left-aligned label + columns. */
inline void
row(const std::string &label, const std::vector<std::string> &cells,
    int label_width = 28, int cell_width = 12)
{
    std::printf("%-*s", label_width, label.c_str());
    for (const std::string &cell : cells)
        std::printf("%*s", cell_width, cell.c_str());
    std::printf("\n");
}

/** Format a double with the given precision. */
inline std::string
num(double value, int precision = 2)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
    return buffer;
}

/** Format a fraction as a percentage. */
inline std::string
pct(double fraction, int precision = 1)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f%%", precision,
                  fraction * 100.0);
    return buffer;
}

} // namespace bench
} // namespace pcon

#endif // PCON_BENCH_BENCH_UTIL_H
