/**
 * @file
 * A small fixed workload that makes the kernel dispatch every hook
 * kind, a hook set that counts what it receives, and the kernel's
 * total dispatch count. Shared by the kernel's dispatch tests, the
 * hook-profiling tests and the golden shapes.
 */

#ifndef PCON_TESTS_HOOK_WORKLOAD_H
#define PCON_TESTS_HOOK_WORKLOAD_H

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "os/kernel.h"
#include "sim/simulation.h"

namespace pcon {

/** Hook dispatches of every kind the kernel has made. */
inline std::uint64_t
hookDispatches(const os::Kernel &kernel)
{
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < os::NumHooks; ++k)
        total += kernel.hookCalls(static_cast<os::Hook>(k));
    return total;
}

/** Counts the callbacks it receives per hook kind. */
struct HookRecorder : os::KernelHooks
{
    std::array<std::uint64_t, os::NumHooks> calls{};
    /** Called with each callback's kind, after counting it. */
    std::function<void(os::Hook)> onCall;

    void
    count(os::Hook kind)
    {
        ++calls[static_cast<std::size_t>(kind)];
        if (onCall)
            onCall(kind);
    }

    std::uint64_t
    of(os::Hook kind) const
    {
        return calls[static_cast<std::size_t>(kind)];
    }

    void
    onContextSwitch(int, os::Task *, os::Task *) override
    {
        count(os::Hook::ContextSwitch);
    }
    void
    onContextRebind(os::Task &, os::RequestId, os::RequestId) override
    {
        count(os::Hook::ContextRebind);
    }
    void
    onSamplingInterrupt(int) override
    {
        count(os::Hook::SamplingInterrupt);
    }
    void
    onIoComplete(hw::DeviceKind, os::RequestId, sim::SimTime,
                 double) override
    {
        count(os::Hook::IoComplete);
    }
    void
    onTaskExit(os::Task &) override
    {
        count(os::Hook::TaskExit);
    }
    void
    onFork(os::Task &, os::Task &) override
    {
        count(os::Hook::Fork);
    }
    void
    onSegmentReceived(os::Task &, const os::Segment &) override
    {
        count(os::Hook::SegmentReceived);
    }
    void
    onActuation(int, int, int) override
    {
        count(os::Hook::Actuation);
    }
};

/**
 * A two-core, 1 GHz machine (one sampling interrupt per busy ms while
 * a hook set is registered) and its kernel. start() schedules a
 * workload that dispatches every hook kind within its first 20
 * simulated ms: an "httpd" task computes
 * 2.5 M cycles, sends to a "db" task (which receives, so rebinds to
 * the request, computes and exits), forks a child, waits for it, does
 * one disk I/O and exits; core 0's duty level changes at 1.5 ms.
 */
struct HookWorkload
{
    sim::Simulation sim;
    hw::Machine machine;
    os::RequestContextManager requests;
    os::Kernel kernel;

    HookWorkload() : machine(sim, config()), kernel(machine, requests)
    {}

    static hw::MachineConfig
    config()
    {
        hw::MachineConfig cfg;
        cfg.name = "hooks";
        cfg.chips = 1;
        cfg.coresPerChip = 2;
        cfg.freqGhz = 1.0;
        cfg.truth.machineIdleW = 10.0;
        cfg.truth.coreBusyW = 5.0;
        cfg.truth.diskActiveW = 3.0;
        return cfg;
    }

    void
    start()
    {
        using os::Op;
        using os::OpResult;
        using Step = os::ScriptedLogic::Step;
        const hw::ActivityVector spin{1.0, 0.0, 0.0, 0.0};
        auto [client, server] = kernel.socketPair();

        kernel.spawn(std::make_shared<os::ScriptedLogic>(
                         std::vector<Step>{
                             [server](os::Kernel &, os::Task &,
                                      const OpResult &) -> Op {
                                 return os::RecvOp{server};
                             },
                             [spin](os::Kernel &, os::Task &,
                                    const OpResult &) -> Op {
                                 return os::ComputeOp{spin, 5e5};
                             }}),
                     "db", os::NoRequest, 1);

        auto child = std::make_shared<os::ScriptedLogic>(
            std::vector<Step>{[spin](os::Kernel &, os::Task &,
                                     const OpResult &) -> Op {
                return os::ComputeOp{spin, 1e5};
            }});
        os::RequestId request = requests.create("hooks", sim.now());
        kernel.spawn(
            std::make_shared<os::ScriptedLogic>(std::vector<Step>{
                [spin](os::Kernel &, os::Task &,
                       const OpResult &) -> Op {
                    return os::ComputeOp{spin, 2.5e6};
                },
                [client](os::Kernel &, os::Task &,
                         const OpResult &) -> Op {
                    return os::SendOp{client, 100};
                },
                [child](os::Kernel &, os::Task &,
                        const OpResult &) -> Op {
                    return os::ForkOp{child, "child"};
                },
                [](os::Kernel &, os::Task &,
                   const OpResult &forked) -> Op {
                    return os::WaitChildOp{forked.child};
                },
                [](os::Kernel &, os::Task &, const OpResult &) -> Op {
                    return os::IoOp{hw::DeviceKind::Disk, 1e4};
                }}),
            "httpd", request, 0);

        sim.schedule(sim::usec(1500),
                     [this] { kernel.setDutyLevel(0, 4); });
    }
};

} // namespace pcon

#endif // PCON_TESTS_HOOK_WORKLOAD_H
