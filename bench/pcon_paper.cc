/**
 * @file
 * pcon_paper: the paper's evaluation in one binary. Each id names a
 * figure, table or ablation; `pcon_paper` runs every id in order,
 * `pcon_paper fig05 fig09` only those. Every table prints to stdout
 * and, when PCON_CSV_DIR is set, also lands in <dir>/<name>.csv at
 * full precision; the directory is created, parents included, before
 * the first experiment runs. Exits 1 on an empty or malformed table
 * or a non-finite number, 2 on an unknown id or a fatal error (a CSV
 * directory that cannot be created or written, say).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "paper.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/logging.h"

namespace {

using namespace pcon;
using namespace pcon::paper;

struct Experiment
{
    const char *id;
    Tables (*run)();
};

const Experiment kExperiments[] = {
    {"fig01", fig01},
    {"fig02", fig02},
    {"fig03", fig03},
    {"sec41", sec41},
    {"fig05", fig05},
    {"fig06", fig06},
    {"fig07", fig07},
    {"fig08-woodcrest", [] { return fig08(hw::woodcrestConfig()); }},
    {"fig08-westmere", [] { return fig08(hw::westmereConfig()); }},
    {"fig08-sandybridge", [] { return fig08(hw::sandyBridgeConfig()); }},
    {"fig09", fig09},
    {"fig10", fig10},
    {"fig11", fig11},
    {"fig12", fig12},
    {"fig13", fig13},
    {"fig14", fig14},
    {"ablations", ablations},
};

std::string
format(const Cell &cell)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), cell.percent ? "%.*f%%" : "%.*f",
                  cell.decimals,
                  cell.percent ? cell.value * 100.0 : cell.value);
    return buffer;
}

/** Why `table` cannot be rendered, or "" when it can. */
std::string
defect(const Table &table)
{
    if (table.rows.empty())
        return "no rows";
    std::size_t labels = table.rows.front().labels.size();
    for (const Row &row : table.rows) {
        if (row.labels.size() != labels ||
            labels + row.cells.size() != table.columns.size())
            return "a row that does not fit its columns";
        for (const Cell &cell : row.cells)
            if (!std::isfinite(cell.value))
                return "a non-finite number";
    }
    return "";
}

/**
 * Print `table` with aligned columns (labels left, numbers right)
 * and, when `csv_dir` is set, write it to <csv_dir>/<name>.csv with
 * every number at full precision.
 */
void
render(const Table &table, const char *csv_dir)
{
    std::size_t labels = table.rows.front().labels.size();
    std::vector<std::vector<std::string>> text{table.columns};
    for (const Row &row : table.rows) {
        std::vector<std::string> line = row.labels;
        for (const Cell &cell : row.cells)
            line.push_back(format(cell));
        text.push_back(line);
    }
    std::vector<int> width(table.columns.size(), 0);
    for (const auto &line : text)
        for (std::size_t c = 0; c < line.size(); ++c)
            width[c] = std::max(width[c], static_cast<int>(line[c].size()));

    std::printf("\n== %s\n", table.name.c_str());
    for (const auto &line : text) {
        for (std::size_t c = 0; c < line.size(); ++c)
            std::printf(c < labels ? "%s%-*s" : "%s%*s", c ? "  " : "",
                        width[c], line[c].c_str());
        std::printf("\n");
    }

    if (csv_dir == nullptr || *csv_dir == '\0')
        return;
    util::CsvWriter csv(std::string(csv_dir) + "/" + table.name + ".csv");
    csv.writeRow(table.columns);
    for (const Row &row : table.rows) {
        std::vector<std::string> cells = row.labels;
        for (const Cell &cell : row.cells)
            cells.push_back(util::jsonNumber(cell.value));
        csv.writeRow(cells);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const Experiment *> chosen;
    for (int i = 1; i < argc; ++i) {
        const Experiment *match = nullptr;
        for (const Experiment &experiment : kExperiments)
            if (std::strcmp(argv[i], experiment.id) == 0)
                match = &experiment;
        if (match == nullptr) {
            std::fprintf(stderr,
                         "pcon_paper: unknown id '%s'\n"
                         "usage: pcon_paper [id ...]\nids:",
                         argv[i]);
            for (const Experiment &experiment : kExperiments)
                std::fprintf(stderr, " %s", experiment.id);
            std::fprintf(stderr, "\n");
            return 2;
        }
        chosen.push_back(match);
    }
    if (chosen.empty())
        for (const Experiment &experiment : kExperiments)
            chosen.push_back(&experiment);

    const char *csv_dir = std::getenv("PCON_CSV_DIR");
    try {
        if (csv_dir != nullptr && *csv_dir != '\0') {
            std::error_code error;
            std::filesystem::create_directories(csv_dir, error);
            util::fatalIf(static_cast<bool>(error),
                          "cannot create PCON_CSV_DIR '", csv_dir,
                          "': ", error.message());
        }
        for (const Experiment *experiment : chosen)
            for (const Table &table : experiment->run()) {
                std::string why = defect(table);
                if (!why.empty()) {
                    std::fprintf(stderr,
                                 "pcon_paper: %s: table %s has %s\n",
                                 experiment->id, table.name.c_str(),
                                 why.c_str());
                    return 1;
                }
                render(table, csv_dir);
                std::fflush(stdout);
            }
    } catch (const util::FatalError &error) {
        std::fprintf(stderr, "pcon_paper: %s\n", error.what());
        return 2;
    }
    return 0;
}
