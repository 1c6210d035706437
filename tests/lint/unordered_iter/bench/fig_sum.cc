// An experiment summing an accessor's unordered map: the sum's last
// bits follow hash order. Must be reported.
#include "core/ledger.h"

double totalEnergy(const pcon::core::Ledger &ledger)
{
    double sum = 0;
    for (const auto &[id, energy] : ledger.byId())
        sum += energy;
    return sum;
}
