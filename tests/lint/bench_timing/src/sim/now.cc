// Simulated time from the simulation clock: clean. (The wall-clock
// rule scans src/ and bench/, so the fixture root needs both.)
#include "sim/simulation.h"

namespace pcon::sim {

double elapsed(const Simulation &sim, double start)
{
    return sim.now() - start;
}

}  // namespace pcon::sim
