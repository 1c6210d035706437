/**
 * @file
 * The paper's evaluation as data: every figure, table and ablation is
 * a function that runs its experiment and returns tables, and
 * pcon_paper.cc maps ids to these functions and renders the tables.
 */

#ifndef PCON_BENCH_PAPER_H
#define PCON_BENCH_PAPER_H

#include <string>
#include <vector>

#include "hw/config.h"

namespace pcon {
namespace paper {

/**
 * One number and its print format. The console shows `decimals`
 * digits after the point (of value * 100 and a '%' when `percent`);
 * the CSV always gets the full value.
 */
struct Cell
{
    double value;
    int decimals;
    bool percent;
};

/** A plain number with `decimals` digits after the point. */
inline Cell
num(double value, int decimals = 2)
{
    return {value, decimals, false};
}

/** A fraction printed as a percentage. */
inline Cell
pct(double fraction, int decimals = 1)
{
    return {fraction, decimals, true};
}

/** Text labels first, then numbers, one per remaining column. */
struct Row
{
    std::vector<std::string> labels;
    std::vector<Cell> cells;
};

/** A named table; `name` is also its CSV file's stem. */
struct Table
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<Row> rows;
};

using Tables = std::vector<Table>;

Tables fig01();
Tables fig02();
Tables fig03();
Tables sec41();
Tables fig05();
Tables fig06();
Tables fig07();
Tables fig08(const hw::MachineConfig &machine);
Tables fig09();
Tables fig10();
Tables fig11();
Tables fig12();
Tables fig13();
Tables fig14();
Tables ablations();

} // namespace paper
} // namespace pcon

#endif // PCON_BENCH_PAPER_H
