/**
 * @file
 * User-level request tracking in an event-driven server — the
 * paper's named future work (Section 3.3), implemented here.
 *
 * An event-loop server resumes parked request continuations without
 * any system call, so OS-only tracking charges the resumed work to
 * whichever request the loop last read. With the kernel's
 * sync-structure trap (KernelConfig::trapUserLevelSwitches), the
 * resumption rebinds the container and attribution stays exact.
 */

#include <cstdio>
#include <memory>

#include "pcon.h"

using namespace pcon;

namespace {

struct RunResult
{
    double cheapJ = 0;
    double dearJ = 0;
    /** Registry counters: observed context rebinds and switches. */
    double rebinds = 0;
    double switches = 0;
};

RunResult
run(bool trap)
{
    sim::Simulation sim;
    hw::Machine machine(sim, hw::sandyBridgeConfig());
    os::RequestContextManager requests;
    os::KernelConfig kcfg;
    kcfg.trapUserLevelSwitches = trap;
    os::Kernel kernel(machine, requests, kcfg);
    auto model = std::make_shared<core::LinearPowerModel>(
        wl::calibrateModel(hw::sandyBridgeConfig(),
                           core::ModelKind::WithChipShare));
    core::ContainerManager manager(kernel, model, {});
    kernel.addHooks(&manager);

    // Registry metrics make the mechanism visible: the trap shows up
    // directly as kernel.context_rebinds.
    telemetry::Registry registry;
    telemetry::SystemTelemetry telemetry(registry, kernel);
    telemetry.watch(manager);

    wl::EventLoopApp app(/*seed=*/42);
    app.deploy(kernel);
    wl::ClientConfig ccfg;
    ccfg.mode = wl::ClientConfig::Mode::ClosedLoop;
    ccfg.concurrency = 12;
    wl::LoadClient client(app, kernel, ccfg);
    client.start();
    sim.run(sim::sec(20));
    client.stop();

    core::ProfileTable profiles;
    profiles.add(manager.records());
    registry.collect();
    RunResult result;
    result.cheapJ =
        profiles.profile(wl::EventLoopApp::cheapType()).meanEnergyJ.value();
    result.dearJ =
        profiles.profile(wl::EventLoopApp::dearType()).meanEnergyJ.value();
    for (const auto &e : registry.entries()) {
        if (e.name == "kernel.context_rebinds")
            result.rebinds = static_cast<double>(e.counter->value());
        if (e.name == "kernel.context_switches")
            result.switches = static_cast<double>(e.counter->value());
    }
    return result;
}

} // namespace

int
main()
{
    double true_ratio = (wl::EventLoopApp::phase1Cycles +
                         wl::EventLoopApp::dearPhase2Cycles) /
        (wl::EventLoopApp::phase1Cycles +
         wl::EventLoopApp::cheapPhase2Cycles);
    std::printf("Event-driven server, two request types; the dear "
                "type truly does %.1fx the\nwork of the cheap type. "
                "Container-measured energy ratios:\n\n",
                true_ratio);

    RunResult blind = run(false);
    std::printf("OS-only tracking (the published system):\n"
                "  cheap %.4f J, dear %.4f J -> ratio %.1fx  "
                "(resumed phases misattributed)\n"
                "  telemetry: %.0f context switches, %.0f rebinds\n\n",
                blind.cheapJ, blind.dearJ, blind.dearJ / blind.cheapJ,
                blind.switches, blind.rebinds);

    RunResult trap = run(true);
    std::printf("With user-level transfer trapping (this repo's "
                "future-work extension):\n"
                "  cheap %.4f J, dear %.4f J -> ratio %.1fx  "
                "(matches the true workload)\n"
                "  telemetry: %.0f context switches, %.0f rebinds "
                "(the trap is the extra rebinds)\n",
                trap.cheapJ, trap.dearJ, trap.dearJ / trap.cheapJ,
                trap.switches, trap.rebinds);
    return 0;
}
