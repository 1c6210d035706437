/**
 * @file
 * Figure 1: incremental (per-core) power consumption as a CPU-spin
 * microbenchmark occupies idle -> 1 -> 2 -> 3 -> 4 cores, on the
 * quad-core SandyBridge machine and the dual-socket dual-core
 * Woodcrest machine.
 *
 * Paper shape: the first increment on SandyBridge is substantially
 * larger than the rest (shared chip maintenance power); on Woodcrest
 * the first *two* increments are larger because the Linux placement
 * policy spreads tasks across both sockets.
 */

#include <memory>
#include <vector>

#include "os/kernel.h"
#include "paper.h"
#include "workloads/experiment.h"

namespace pcon {
namespace paper {

namespace {

/** Average active power with `busy` cores spinning. */
double
activePowerWithCores(const hw::MachineConfig &cfg, int busy)
{
    sim::Simulation sim;
    hw::Machine machine(sim, cfg);
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);
    for (int i = 0; i < busy; ++i) {
        auto logic = std::make_shared<os::ScriptedLogic>(
            std::vector<os::ScriptedLogic::Step>{
                [](os::Kernel &, os::Task &,
                   const os::OpResult &) -> os::Op {
                    return os::ComputeOp{
                        hw::ActivityVector{1.0, 0.0, 0.0, 0.0}, 1e7};
                }},
            /*loop=*/true);
        // No affinity: the kernel's spread-across-chips placement
        // decides, as Linux does in the paper's experiment.
        kernel.spawn(logic, "spin-" + std::to_string(i));
    }
    double start_energy = machine.machineEnergyJ().value();
    sim::SimTime start = sim.now();
    sim.run(sim::sec(2));
    double avg_full = (machine.machineEnergyJ().value() - start_energy) /
        sim::toSeconds(sim.now() - start);
    return avg_full - cfg.truth.machineIdleW;
}

} // namespace

Tables
fig01()
{
    Table table{"fig01_incremental_power",
                {"machine", "busy_cores", "incremental_w", "active_w"},
                {}};
    for (const hw::MachineConfig &cfg :
         {hw::sandyBridgeConfig(), hw::woodcrestConfig()}) {
        double previous = 0.0;
        for (int busy = 1; busy <= cfg.totalCores(); ++busy) {
            double active = activePowerWithCores(cfg, busy);
            table.rows.push_back({{cfg.name},
                                  {num(busy, 0), num(active - previous),
                                   num(active)}});
            previous = active;
        }
    }
    return {table};
}

} // namespace paper
} // namespace pcon
