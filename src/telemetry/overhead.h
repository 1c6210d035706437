/**
 * @file
 * Self-measured accounting overhead (the Section 3.5 story as a
 * queryable metric). OverheadProfiler is a KernelHooks decorator:
 * register it with the kernel in place of the hooks it wraps, and it
 * forwards every callback while timing the wrapped bookkeeping with
 * the host's monotonic clock, reporting the cost in CPU cycles (at
 * the simulated machine's nominal frequency) through registry
 * histograms:
 *
 *   overhead.context_switch_cycles   per-context-switch bookkeeping
 *   overhead.sampling_window_cycles  per counter-overflow window
 *   overhead.rebind_cycles           per context rebind
 *   overhead.io_complete_cycles      per I/O attribution
 *   overhead.actuation_cycles        per actuator write observed
 *   overhead.refit_cycles            per NNLS model refit
 *
 * Alongside the histograms, every hook class also maintains an
 * always-on pair of cost counters (docs/OBSERVABILITY.md,
 * "Self-measured accounting overhead"):
 *
 *   perf.<class>.calls    invocations forwarded through the profiler
 *   perf.<class>.cycles   cumulative modeled cycles spent inside
 *
 * for <class> in context_switch, context_rebind, sampling_window,
 * io_complete, task_exit, fork, segment_received, actuation, refit.
 * Call counts are a pure function of the (deterministic) simulated
 * workload, so tests assert them exactly; cycle totals are host
 * measurements and vary run to run.
 *
 * Host timings are telemetry about this implementation, not simulated
 * physics: they never feed back into simulation state, so runs remain
 * bit-identical while the overhead metrics vary with the host.
 */

#ifndef PCON_TELEMETRY_OVERHEAD_H
#define PCON_TELEMETRY_OVERHEAD_H

#include <cstdint>
#include <vector>

#include "os/hooks.h"
#include "telemetry/registry.h"

namespace pcon {
namespace telemetry {

/**
 * Times wrapped kernel hooks and synthetic refits. Construct with the
 * registry and the modeled CPU frequency, wrap() the hook sets to
 * measure (typically the ContainerManager), then register the
 * profiler itself with kernel.addHooks().
 */
class OverheadProfiler : public os::KernelHooks
{
  public:
    /**
     * @param registry Where overhead metrics are registered.
     * @param cpu_freq_hz Nominal frequency used to express host
     *        nanoseconds as cycles (e.g. machine config GHz * 1e9).
     */
    OverheadProfiler(Registry &registry, double cpu_freq_hz);

    /** Add an inner hook set; forwarded to in wrap() order. */
    void wrap(os::KernelHooks *inner);

    // --- KernelHooks (timed forwarding) ---
    void onContextSwitch(int core, os::Task *prev,
                         os::Task *next) override;
    void onContextRebind(os::Task &task, os::RequestId old_ctx,
                         os::RequestId new_ctx) override;
    void onSamplingInterrupt(int core) override;
    void onIoComplete(hw::DeviceKind device, os::RequestId context,
                      sim::SimTime busy_time, double bytes) override;
    void onTaskExit(os::Task &task) override;
    void onFork(os::Task &parent, os::Task &child) override;
    void onSegmentReceived(os::Task &task,
                           const os::Segment &segment) override;
    void onActuation(int core, int duty_level, int pstate) override;

    /**
     * Time a synthetic non-negative least-squares refit of the given
     * shape (the recalibrator's Section 3.5 cost) and record it in
     * overhead.refit_cycles.
     * @param rows Calibration samples in the design matrix.
     * @param features Model features (columns).
     * @param repetitions How many fits to time.
     */
    void profileRefit(std::size_t rows, std::size_t features,
                      int repetitions = 3);

    /** Total hook invocations forwarded. */
    std::uint64_t forwardedCalls() const { return calls_->value(); }

  private:
    /**
     * One hook class's cost instruments: the always-on perf.* pair
     * plus — for the classes that had one before the perf layer —
     * the overhead.* distribution histogram.
     */
    struct HookCost
    {
        Counter *calls = nullptr;
        Counter *cycles = nullptr;
        Histogram *hist = nullptr;
    };

    /** Register perf.<cls>.{calls,cycles} beside `hist` (nullable). */
    HookCost makeCost(Registry &registry, const char *cls,
                      Histogram *hist);

    /** Host nanoseconds -> modeled cycles. */
    double cyclesPerNs_;

    /** Run `fn`, charge its host cost to `cost`'s instruments. */
    template <typename F> void timed(HookCost &cost, F &&fn);

    std::vector<os::KernelHooks *> inner_;
    Counter *calls_;
    HookCost switchCost_;
    HookCost rebindCost_;
    HookCost windowCost_;
    HookCost ioCost_;
    HookCost taskExitCost_;
    HookCost forkCost_;
    HookCost segmentCost_;
    HookCost actuationCost_;
    HookCost refitCost_;
};

} // namespace telemetry
} // namespace pcon

#endif // PCON_TELEMETRY_OVERHEAD_H
