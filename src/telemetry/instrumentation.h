/**
 * @file
 * Glue between the facility and the metrics registry. One
 * SystemTelemetry instance instruments a kernel (context switches,
 * rebinds, sampling interrupts, I/O, actuations, request lifecycle)
 * and can additionally watch the accounting engine, the online
 * recalibrator, the power conditioner, and the invariant auditor —
 * each watch() registers the relevant counters/gauges/histograms and,
 * for pull-style values, a registry collector that refreshes them on
 * every snapshot. attachPerfetto() forwards per-container power
 * samples and refit markers to a PerfettoExporter on the same
 * cadence.
 */

#ifndef PCON_TELEMETRY_INSTRUMENTATION_H
#define PCON_TELEMETRY_INSTRUMENTATION_H

#include "audit/invariant_auditor.h"
#include "core/anomaly.h"
#include "core/conditioning.h"
#include "core/container_manager.h"
#include "core/recalibration.h"
#include "os/hooks.h"
#include "os/kernel.h"
#include "telemetry/perfetto.h"
#include "telemetry/registry.h"

namespace pcon {
namespace telemetry {

/**
 * Registers facility-wide metrics and keeps them fresh. Register
 * with kernel.addHooks() after the ContainerManager so request
 * completion metrics see final records.
 */
class SystemTelemetry : public os::KernelHooks
{
  public:
    SystemTelemetry(Registry &registry, os::Kernel &kernel);

    // --- KernelHooks (push-style kernel metrics) ---
    void onContextSwitch(int core, os::Task *prev,
                         os::Task *next) override;
    void onContextRebind(os::Task &task, os::RequestId old_ctx,
                         os::RequestId new_ctx) override;
    void onSamplingInterrupt(int core) override;
    void onIoComplete(hw::DeviceKind device, os::RequestId context,
                      sim::SimTime busy_time, double bytes) override;
    void onTaskExit(os::Task &task) override;
    void onActuation(int core, int duty_level, int pstate) override;

    /** Accounting engine: container counts, energy, maintenance. */
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
    core::ContainerManager *manager_ = nullptr;

    Counter &switches_;
    Counter &rebinds_;
    Counter &interrupts_;
    Counter &ioCompletions_;
    Counter &taskExits_;
    Counter &actuations_;
    Counter &ioBytes_;
    Counter &requestsCreated_;
    Counter &requestsCompleted_;
    Gauge &requestsActive_;
    Histogram &requestEnergyJ_;
    Histogram &requestResponseMs_;
    Histogram &requestMeanPowerW_;
};

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
