/**
 * @file
 * SLO and anomaly watchdogs, evaluated on sampler ticks. A
 * WatchdogSet registers itself as a registry collector, so every
 * telemetry::Sampler snapshot (registry.collect()) runs one
 * evaluation pass over whatever the set was told to watch:
 *
 *  - power-cap violation duration: containers whose modeled power
 *    stays above the cap for longer than the grace window;
 *  - attribution drift: container-accounted active energy versus the
 *    machine's ground-truth active energy (the Figure 8 validation,
 *    continuously);
 *  - recalibration health: refitsRejected / lowConfidenceAlignments
 *    advancing after warmup (SmartWatts-style self-reported model
 *    confidence);
 *  - stuck counters: progress probes (e.g. meter deliveries) that
 *    stop advancing for consecutive ticks — a meter outage trips
 *    this long before any model statistic notices;
 *  - power anomalies: a core::PowerAnomalyDetector scanned every
 *    tick, its detections journaled as alerts;
 *  - injected-fault visibility: `fault.*` registry counters polled
 *    for movement, journaled as fault records (not alerts).
 *
 * Every firing appends a journal record and bumps an `obs.*` registry
 * metric. The canonical FaultPlan must trip the outage (stuck
 * counter) and recalibration watchdogs; a fault-free run must stay
 * alert-silent — both pinned by tests/obs/watchdog_fault_test.cc.
 */

#ifndef PCON_OBS_WATCHDOG_H
#define PCON_OBS_WATCHDOG_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/anomaly.h"
#include "core/container_manager.h"
#include "core/recalibration.h"
#include "hw/power_meter.h"
#include "obs/journal.h"
#include "telemetry/registry.h"

namespace pcon {
namespace obs {

/** Watchdog thresholds. */
struct WatchdogConfig
{
    /** Per-container modeled power cap (0 disables). */
    util::Watts powerCapW{0};
    /** How long a container may sit above the cap before alerting. */
    sim::SimTime capViolationAfter = sim::msec(50);
    /** Relative accounted-vs-truth active energy error that alerts. */
    double driftAlertFraction = 0.5;
    /** Window the drift comparison needs before it is meaningful. */
    sim::SimTime driftWarmup = sim::msec(500);
    /** Ignore recalibration-health movement before this sim time
     * (cold starts legitimately produce low-confidence scans). */
    sim::SimTime recalWarmup = sim::sec(1);
    /** Consecutive no-progress ticks before a probe is stuck. */
    std::size_t stuckAfterTicks = 16;
};

/**
 * The watchdog evaluator. Construct with the journal and registry,
 * point it at the subsystems to watch, then installCollector() so
 * sampler ticks drive it (or call evaluate() directly from tests).
 * Evaluation order is fixed (cap, drift, recalibration, stuck
 * probes, anomalies, faults) so journal output is deterministic.
 */
class WatchdogSet
{
  public:
    WatchdogSet(Journal &journal, telemetry::Registry &registry,
                os::Kernel &kernel, const WatchdogConfig &cfg = {});

    WatchdogSet(const WatchdogSet &) = delete;
    WatchdogSet &operator=(const WatchdogSet &) = delete;

    /** Watch container power against the cap (needs cfg.powerCapW). */
    void watchContainers(core::ContainerManager &manager);

    /**
     * Watch container-accounted energy against the machine's
     * ground-truth active energy, from now onward. Implies
     * watchContainers' manager wiring.
     */
    void watchGroundTruth(core::ContainerManager &manager,
                          hw::Machine &machine);

    /** Watch refit/alignment health counters for movement. */
    void watchRecalibration(core::OnlineRecalibrator &recalibrator);

    /** Stuck-counter probe over meter deliveries ("meter_delivery"). */
    void watchMeterDelivery(hw::PowerMeter &meter);

    /**
     * Generic progress probe: `probe` must advance between ticks once
     * it has moved at all; cfg.stuckAfterTicks static ticks alert.
     */
    void addProgressProbe(const std::string &name,
                          std::function<std::uint64_t()> probe);

    /** Scan a power-anomaly detector each tick, journaling hits. */
    void watchAnomalies(core::PowerAnomalyDetector &detector);

    /** Register the registry collector driving evaluate() on every
     * snapshot. Call once. */
    void installCollector();

    /** Run one evaluation pass now (what sampler ticks invoke). */
    void evaluate();

    /** Evaluation passes run. */
    std::uint64_t evaluations() const { return evaluations_; }

    /** Alerts fired across all watchdogs. */
    std::uint64_t alertsFired() const { return alertsFired_; }

  private:
    struct CapState
    {
        /** When the container first exceeded the cap this episode. */
        sim::SimTime since = 0;
        bool alerted = false;
    };

    struct Probe
    {
        std::string name;
        std::function<std::uint64_t()> fn;
        std::uint64_t last = 0;
        /** The probe has advanced at least once (armed). */
        bool moved = false;
        std::size_t staleTicks = 0;
        bool alerted = false;
    };

    void alert(const std::string &what, const std::string &detail,
               os::RequestId container, double value,
               telemetry::Counter &family);
    void checkCaps(sim::SimTime now);
    void checkDrift(sim::SimTime now);
    void checkRecalibration(sim::SimTime now);
    void checkProbes(sim::SimTime now);
    void checkAnomalies(sim::SimTime now);
    void checkFaultCounters(sim::SimTime now);
    std::uint64_t faultCounterSum() const;

    Journal &journal_;
    telemetry::Registry &registry_;
    os::Kernel &kernel_;
    WatchdogConfig cfg_;

    core::ContainerManager *manager_ = nullptr;
    hw::Machine *machine_ = nullptr;
    core::OnlineRecalibrator *recalibrator_ = nullptr;
    core::PowerAnomalyDetector *anomalies_ = nullptr;

    /** Drift baseline captured by watchGroundTruth. */
    sim::SimTime driftStart_ = 0;
    util::Joules driftStartTruthJ_{0};
    util::Joules driftStartAccountedJ_{0};
    bool driftAlerted_ = false;

    std::uint64_t lastRefitsRejected_ = 0;
    std::uint64_t lastLowConfidence_ = 0;

    std::map<os::RequestId, CapState> capStates_;
    std::vector<Probe> probes_;
    std::uint64_t lastFaultSum_ = 0;
    bool faultBaselineTaken_ = false;

    std::uint64_t evaluations_ = 0;
    std::uint64_t alertsFired_ = 0;

    telemetry::Counter &evaluationsTotal_;
    telemetry::Counter &alertsTotal_;
    telemetry::Counter &capAlertsTotal_;
    telemetry::Counter &driftAlertsTotal_;
    telemetry::Counter &recalAlertsTotal_;
    telemetry::Counter &stuckAlertsTotal_;
    telemetry::Counter &anomalyAlertsTotal_;
    telemetry::Counter &faultRecordsTotal_;
    telemetry::Gauge &capOverGauge_;
    telemetry::Gauge &driftFractionGauge_;
    telemetry::Gauge &journalRecordsGauge_;
    telemetry::Gauge &journalDroppedGauge_;
};

} // namespace obs
} // namespace pcon

#endif // PCON_OBS_WATCHDOG_H
