/**
 * @file
 * Minimal CSV writer for experiment tables and telemetry. Rows are written
 * immediately; cells containing separators or quotes are escaped.
 */

#ifndef PCON_UTIL_CSV_H
#define PCON_UTIL_CSV_H

#include <fstream>
#include <string>
#include <vector>

namespace pcon {
namespace util {

/**
 * Write comma-separated rows to a file. The file is truncated on
 * construction and flushed on destruction (RAII).
 */
class CsvWriter
{
  public:
    /** Open (truncate) the target file; fatal() when unwritable. */
    explicit CsvWriter(const std::string &path);

    /**
     * Write one row of preformatted cells (numbers through
     * util::jsonNumber keep full precision).
     */
    void writeRow(const std::vector<std::string> &cells);

  private:
    static std::string escape(const std::string &cell);

    std::ofstream out_;
};

} // namespace util
} // namespace pcon

#endif // PCON_UTIL_CSV_H
