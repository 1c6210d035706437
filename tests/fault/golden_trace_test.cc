/**
 * @file
 * Golden-trace regression test: a fixed deterministic scenario —
 * scheduling, socket traffic, device I/O, actuation, task kills, and
 * fault injection — rendered through the Perfetto exporter must stay
 * byte-for-byte identical to the committed fixture. Any intentional
 * change to the trace format shows up as a reviewable fixture diff;
 * regenerate with PCON_UPDATE_GOLDEN=1.
 */

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "os/task.h"
#include "sim/simulation.h"
#include "telemetry/perfetto.h"

#ifndef PCON_TEST_DATA_DIR
#error "PCON_TEST_DATA_DIR must point at the committed fixtures"
#endif

namespace pcon {
namespace {

using sim::msec;

hw::MachineConfig
goldenConfig()
{
    hw::MachineConfig cfg;
    cfg.name = "golden";
    cfg.chips = 1;
    cfg.coresPerChip = 2;
    cfg.freqGhz = 1.0;
    cfg.dutyDenom = 8;
    cfg.truth.machineIdleW = 10.0;
    cfg.truth.packageIdleW = 1.0;
    cfg.truth.coreBusyW = 5.0;
    cfg.truth.diskActiveW = 3.0;
    cfg.truth.netActiveW = 2.0;
    return cfg;
}

const hw::ActivityVector kSpin{1.0, 0.0, 0.0, 0.0};

/**
 * The frozen scenario. Everything here is driven by the simulation
 * clock and fixed seeds; no wall-clock, no ambient randomness.
 */
std::string
renderGoldenTrace()
{
    sim::Simulation sim;
    hw::Machine machine(sim, goldenConfig());
    os::RequestContextManager requests;
    os::Kernel kernel(machine, requests);

    telemetry::PerfettoExporter exporter(kernel);
    kernel.addHooks(&exporter);

    fault::FaultPlan plan;
    plan.seed = 7;
    plan.meter.dropProbability = 0.5;
    plan.sockets.lossProbability = 0.4;
    plan.tasks.killAt = {msec(12)};
    fault::FaultInjector injector(sim, plan);
    injector.attachPerfetto(exporter);
    hw::PowerMeter meter(machine, hw::MeterScope::Machine,
                         {msec(1), msec(1)});
    injector.attachMeter(meter);
    injector.attachSockets(kernel);
    injector.attachTasks(kernel);
    injector.arm();
    meter.start();

    // A ping-pong pair over a socket (exercises scheduling slices,
    // rebinds, and segment faults)...
    auto [ping, pong] = kernel.socketPair();
    auto server = std::make_shared<os::ScriptedLogic>(
        std::vector<os::ScriptedLogic::Step>{
            [pong = pong](os::Kernel &, os::Task &,
                          const os::OpResult &) -> os::Op {
                return os::RecvOp{pong};
            },
            [](os::Kernel &, os::Task &,
               const os::OpResult &) -> os::Op {
                return os::ComputeOp{kSpin, 2e6};
            },
            [pong = pong](os::Kernel &, os::Task &,
                          const os::OpResult &) -> os::Op {
                return os::SendOp{pong, 256};
            }},
        /*loop=*/true);
    kernel.spawn(server, "server");

    os::RequestId req = requests.create("golden", sim.now());
    auto client_logic = std::make_shared<os::ScriptedLogic>(
        std::vector<os::ScriptedLogic::Step>{
            [ping = ping](os::Kernel &, os::Task &,
                          const os::OpResult &) -> os::Op {
                return os::SendOp{ping, 512};
            },
            [](os::Kernel &, os::Task &,
               const os::OpResult &) -> os::Op {
                return os::ComputeOp{kSpin, 1e6};
            },
            [](os::Kernel &, os::Task &,
               const os::OpResult &) -> os::Op {
                return os::SleepOp{msec(2)};
            }},
        /*loop=*/true);
    kernel.spawn(client_logic, "client", req);

    // ...a disk-bound worker in its own request context (device
    // instants; it is also the kill fault's deepest victim pool)...
    os::RequestId io_req = requests.create("io", sim.now());
    auto io_logic = std::make_shared<os::ScriptedLogic>(
        std::vector<os::ScriptedLogic::Step>{
            [](os::Kernel &, os::Task &,
               const os::OpResult &) -> os::Op {
                return os::IoOp{hw::DeviceKind::Disk, 4096};
            },
            [](os::Kernel &, os::Task &,
               const os::OpResult &) -> os::Op {
                return os::ComputeOp{kSpin, 5e5};
            }},
        /*loop=*/true);
    kernel.spawn(io_logic, "diskworker", io_req);

    // ...and one actuation so counter tracks appear.
    sim.schedule(msec(5), [&] { kernel.setDutyLevel(0, 4); });

    sim.run(msec(25));
    exporter.finish();
    return exporter.json();
}

std::string
fixturePath()
{
    return std::string(PCON_TEST_DATA_DIR) + "/golden_trace.json";
}

TEST(GoldenTrace, MatchesCommittedFixtureByteForByte)
{
    std::string trace = renderGoldenTrace();
    ASSERT_FALSE(trace.empty());

    if (std::getenv("PCON_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(fixturePath(), std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << fixturePath();
        out << trace;
        GTEST_SKIP() << "fixture regenerated at " << fixturePath();
    }

    std::ifstream in(fixturePath());
    ASSERT_TRUE(in) << "missing fixture " << fixturePath()
                    << " — regenerate with PCON_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string golden = buf.str();

    // Byte-for-byte: any drift in event ordering, float rendering,
    // or track metadata is a regression (or a deliberate format
    // change that belongs in the fixture diff).
    EXPECT_EQ(trace.size(), golden.size());
    ASSERT_EQ(trace, golden)
        << "trace drifted from the committed golden fixture; if the "
           "change is intentional, regenerate with "
           "PCON_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(GoldenTrace, RenderIsDeterministicWithinProcess)
{
    EXPECT_EQ(renderGoldenTrace(), renderGoldenTrace());
}

} // namespace
} // namespace pcon
