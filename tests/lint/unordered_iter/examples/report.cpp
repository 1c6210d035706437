// An example walking an accessor's unordered map through a pointer
// (must be reported), and collecting ids to sort first (allowed).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/ledger.h"

void report(const pcon::core::Ledger *ledger)
{
    for (const auto &entry : ledger->byId())
        std::printf("%d %g\n", entry.first, entry.second);

    std::vector<int> ids;
    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &entry : ledger->byId())
        ids.push_back(entry.first);
    std::sort(ids.begin(), ids.end());
    for (int id : ledger->ids())
        std::printf("%d\n", id);
}
