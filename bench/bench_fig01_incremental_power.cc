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

#include "bench_util.h"
#include "os/kernel.h"
#include "workloads/experiment.h"

namespace {

using namespace pcon;

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

void
runMachine(const hw::MachineConfig &cfg, bench::CsvSink &csv)
{
    bench::section("Machine with " + cfg.name + " (" +
                   std::to_string(cfg.chips) + " chip(s) x " +
                   std::to_string(cfg.coresPerChip) + " cores)");
    bench::row("transition", {"incremental W"});
    double previous = 0.0;
    for (int busy = 1; busy <= cfg.totalCores(); ++busy) {
        double active = activePowerWithCores(cfg, busy);
        std::string label = busy == 1
            ? "idle -> 1 core"
            : std::to_string(busy - 1) + " -> " +
                std::to_string(busy) + " cores";
        bench::row(label, {bench::num(active - previous)});
        csv.row(cfg.name, busy, active - previous, active);
        previous = active;
    }
}

} // namespace

int
main()
{
    bench::header("Figure 1: incremental per-core power (Watts)",
                  "CPU-spin microbenchmark; increments of measured "
                  "active power");
    bench::CsvSink csv("fig01_incremental_power");
    csv.row("machine", "busy_cores", "incremental_w", "active_w");
    runMachine(hw::sandyBridgeConfig(), csv);
    runMachine(hw::woodcrestConfig(), csv);
    std::printf("\nExpected shape: the first increment (SandyBridge) "
                "and the first two\nincrements (dual-socket "
                "Woodcrest) exceed the remaining ones, because\n"
                "shared chip maintenance power switches on with the "
                "first core of each\nsocket.\n");
    return 0;
}
