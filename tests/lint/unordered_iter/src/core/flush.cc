// Iterating an unordered container: hash order reaches the journal.
// Must be reported.
#include <unordered_map>

namespace pcon::core {

std::unordered_map<int, long> gEnergyById;

void flushAll(Journal &journal)
{
    for (const auto &entry : gEnergyById) {
        journal.record(entry.first, entry.second);
    }
}

// Aggregation only, yet reported too: the rule does not read loop
// bodies, so an order-insensitive walk takes a justified allow().
long totalEnergy()
{
    long sum = 0;
    for (const auto &entry : gEnergyById)
        sum += entry.second;
    return sum;
}

}  // namespace pcon::core
