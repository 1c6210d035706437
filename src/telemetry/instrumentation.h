/**
 * @file
 * Glue between the facility and the metrics registry. One
 * SystemTelemetry instance publishes a kernel's counts (context
 * switches, rebinds, sampling interrupts, I/O, actuations, request
 * lifecycle) and can additionally watch the accounting engine, the
 * online recalibrator, the power conditioner, and the invariant
 * auditor — each watch() registers the relevant
 * counters/gauges/histograms and, for pull-style values, a registry
 * collector that refreshes them on every snapshot. attachPerfetto()
 * forwards per-container power samples and refit markers to a
 * PerfettoExporter on the same cadence. profileHooks() publishes what
 * the kernel's hook sets cost on the host (Section 3.5).
 */

#ifndef PCON_TELEMETRY_INSTRUMENTATION_H
#define PCON_TELEMETRY_INSTRUMENTATION_H

#include <cstdint>
#include <vector>

#include "audit/invariant_auditor.h"
#include "core/anomaly.h"
#include "core/conditioning.h"
#include "core/container_manager.h"
#include "core/recalibration.h"
#include "os/kernel.h"
#include "telemetry/perfetto.h"
#include "telemetry/registry.h"

namespace pcon {
namespace telemetry {

/**
 * Registers facility-wide metrics and keeps them fresh. The kernel.*
 * counters read the kernel's own hook and device counts on every
 * collect, so nothing is registered with kernel.addHooks().
 */
class SystemTelemetry
{
  public:
    SystemTelemetry(Registry &registry, os::Kernel &kernel);

    /**
     * Accounting engine: container counts, energy, maintenance, and
     * the requests.energy_j / requests.mean_power_w histograms, fed
     * from the manager's completed-record stream.
     */
    void watch(core::ContainerManager &manager);

    /** Recalibrator: refits, online samples, delay, alignment. */
    void watch(core::OnlineRecalibrator &recalibrator);

    /** Conditioner: tracked requests, mean speed fraction. */
    void watch(core::PowerConditioner &conditioner);

    /** Auditor: sweeps run and violations detected. */
    void watch(audit::InvariantAuditor &auditor);

    /**
     * Anomaly detector: scan() on every snapshot, publishing the
     * anomaly.* counters and fleet-statistics gauges. scan()
     * consumes detections (each request is reported once), so give
     * the detector one driver: watch it here or poll it yourself,
     * not both.
     */
    void watch(core::PowerAnomalyDetector &detector);

    /**
     * Forward per-container power samples (on each collect) and
     * refit markers to a Perfetto exporter. Watch the manager /
     * recalibrator *after* attaching, or attach first — both orders
     * work; samples flow once both sides are known.
     */
    void attachPerfetto(PerfettoExporter &exporter);

    /** The registry metrics are published into. */
    Registry &registry() { return registry_; }

  private:
    Registry &registry_;
    os::Kernel &kernel_;
    PerfettoExporter *perfetto_ = nullptr;

    /** A kernel.* counter and the kernel count it last published. */
    struct KernelCount
    {
        Counter *counter;
        std::uint64_t published;

        /** Add the kernel count's growth since the last call. */
        void
        advance(std::uint64_t now)
        {
            counter->add(now - published);
            published = now;
        }
    };

    /** One per counted hook kind, then kernel.io_bytes. */
    std::vector<KernelCount> kernelCounts_;
    Counter &requestsCreated_;
    Counter &requestsCompleted_;
    Gauge &requestsActive_;
    Histogram &requestEnergyJ_;
    Histogram &requestResponseMs_;
    Histogram &requestMeanPowerW_;
};

/**
 * Self-measured hook overhead (Section 3.5): time every hook set the
 * kernel dispatches to (Kernel::timeHooks), in CPU cycles at
 * `cpu_freq_hz`, and publish per hook-set call
 *
 *   overhead.hook_calls                 calls timed, all kinds
 *   perf.<class>.calls / .cycles        per hook class: calls timed
 *                                       and their cumulative cycles
 *   overhead.<class>_cycles             histogram, for context_switch,
 *                                       sampling_window, rebind,
 *                                       io_complete and actuation
 *
 * for <class> in context_switch, context_rebind, sampling_window,
 * io_complete, task_exit, fork, segment_received, actuation. Call
 * counts are a pure function of the workload; cycles are host time.
 * Replaces any timer already installed on the kernel. The timer
 * writes into `registry`: stop it (kernel.timeHooks({})) before the
 * registry goes while the kernel still runs.
 */
void profileHooks(Registry &registry, os::Kernel &kernel,
                  double cpu_freq_hz);

/**
 * Publish util::logMessage per-severity call counts as registry
 * counters (`log.warn_total`, `log.error_total`, `log.info_total`,
 * `log.debug_total`), refreshed by a collector. Counts are
 * process-wide; deltas since attach are what accumulate.
 */
void attachLogMetrics(Registry &registry);

} // namespace telemetry
} // namespace pcon

#endif // PCON_TELEMETRY_INSTRUMENTATION_H
