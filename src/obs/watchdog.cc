#include "watchdog.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "os/kernel.h"

namespace pcon {
namespace obs {

namespace {

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

} // namespace

WatchdogSet::WatchdogSet(Journal &journal,
                         telemetry::Registry &registry,
                         os::Kernel &kernel,
                         const WatchdogConfig &cfg)
    : journal_(journal), registry_(registry), kernel_(kernel),
      cfg_(cfg),
      evaluationsTotal_(
          registry.counter("obs.watchdog.evaluations_total")),
      alertsTotal_(registry.counter("obs.watchdog.alerts_total")),
      capAlertsTotal_(
          registry.counter("obs.watchdog.cap_alerts_total")),
      driftAlertsTotal_(
          registry.counter("obs.watchdog.drift_alerts_total")),
      recalAlertsTotal_(
          registry.counter("obs.watchdog.recal_alerts_total")),
      stuckAlertsTotal_(
          registry.counter("obs.watchdog.stuck_alerts_total")),
      anomalyAlertsTotal_(
          registry.counter("obs.watchdog.anomaly_alerts_total")),
      faultRecordsTotal_(
          registry.counter("obs.journal.fault_records_total")),
      capOverGauge_(
          registry.gauge("obs.watchdog.cap_over_containers")),
      driftFractionGauge_(
          registry.gauge("obs.watchdog.drift_fraction")),
      journalRecordsGauge_(registry.gauge("obs.journal.records")),
      journalDroppedGauge_(registry.gauge("obs.journal.dropped"))
{
}

void
WatchdogSet::watchContainers(core::ContainerManager &manager)
{
    manager_ = &manager;
}

void
WatchdogSet::watchGroundTruth(core::ContainerManager &manager,
                              hw::Machine &machine)
{
    manager_ = &manager;
    machine_ = &machine;
    driftStart_ = kernel_.simulation().now();
    driftStartTruthJ_ = machine.machineEnergyJ();
    driftStartAccountedJ_ = manager.accountedEnergyJ();
    driftAlerted_ = false;
}

void
WatchdogSet::watchRecalibration(core::OnlineRecalibrator &recalibrator)
{
    recalibrator_ = &recalibrator;
    lastRefitsRejected_ = recalibrator.refitsRejected();
    lastLowConfidence_ = recalibrator.lowConfidenceAlignments();
}

void
WatchdogSet::watchMeterDelivery(hw::PowerMeter &meter)
{
    addProgressProbe("meter_delivery", [&meter]() {
        const std::deque<hw::PowerMeter::Sample> &h = meter.history();
        // Pair count with the last delivery time so a trimHistory()
        // cannot masquerade as progress (or mask a stall).
        std::uint64_t stamp = static_cast<std::uint64_t>(h.size());
        if (!h.empty())
            stamp += static_cast<std::uint64_t>(h.back().deliveredAt);
        return stamp;
    });
}

void
WatchdogSet::addProgressProbe(const std::string &name,
                              std::function<std::uint64_t()> probe)
{
    Probe p;
    p.name = name;
    p.fn = std::move(probe);
    p.last = p.fn();
    probes_.push_back(std::move(p));
}

void
WatchdogSet::watchAnomalies(core::PowerAnomalyDetector &detector)
{
    anomalies_ = &detector;
}

void
WatchdogSet::installCollector()
{
    registry_.addCollector([this]() { evaluate(); });
}

void
WatchdogSet::alert(const std::string &what, const std::string &detail,
                   os::RequestId container, double value,
                   telemetry::Counter &family)
{
    journal_.append(RecordKind::Alert, Severity::Error,
                    kernel_.simulation().now(), container, container,
                    what, detail, value);
    family.add();
    alertsTotal_.add();
    ++alertsFired_;
}

void
WatchdogSet::checkCaps(sim::SimTime now)
{
    if (manager_ == nullptr || cfg_.powerCapW.value() <= 0) {
        capOverGauge_.set(0);
        return;
    }
    // Sorted id order: live() is an unordered map, and journal bytes
    // must not depend on hash order.
    std::vector<os::RequestId> ids;
    ids.reserve(manager_->live().size());
    // pcon-lint: allow(unordered-iteration) sorted before use
    for (const auto &kv : manager_->live())
        ids.push_back(kv.first);
    std::sort(ids.begin(), ids.end());

    std::size_t over = 0;
    for (os::RequestId id : ids) {
        core::PowerContainer *c = manager_->container(id);
        if (c == nullptr)
            continue;
        double w = c->lastPowerW().value();
        if (w <= cfg_.powerCapW.value()) {
            capStates_.erase(id);
            continue;
        }
        ++over;
        CapState &state = capStates_[id];
        if (state.since == 0)
            state.since = now;
        if (!state.alerted &&
            now - state.since >= cfg_.capViolationAfter) {
            state.alerted = true;
            alert("power_cap",
                  "container " + std::to_string(id) + " (" +
                      c->type() + ") " + fmt("%.3f", w) +
                      " W over cap " +
                      fmt("%.3f", cfg_.powerCapW.value()) +
                      " W",
                  id, w, capAlertsTotal_);
        }
    }
    // Containers that completed mid-episode leave stale state behind.
    for (auto it = capStates_.begin(); it != capStates_.end();) {
        if (manager_->container(it->first) == nullptr)
            it = capStates_.erase(it);
        else
            ++it;
    }
    capOverGauge_.set(static_cast<double>(over));
}

void
WatchdogSet::checkDrift(sim::SimTime now)
{
    if (manager_ == nullptr || machine_ == nullptr)
        return;
    sim::SimTime span = now - driftStart_;
    if (span < cfg_.driftWarmup)
        return;
    double span_s = sim::toSeconds(span);
    double truth_active =
        (machine_->machineEnergyJ() - driftStartTruthJ_).value() -
        machine_->config().truth.machineIdleW * span_s;
    if (truth_active <= 0)
        return;
    double accounted =
        (manager_->accountedEnergyJ() - driftStartAccountedJ_)
            .value();
    double fraction =
        std::abs(accounted - truth_active) / truth_active;
    driftFractionGauge_.set(fraction);
    if (!driftAlerted_ && fraction > cfg_.driftAlertFraction) {
        driftAlerted_ = true;
        alert("attribution_drift",
              "accounted " + fmt("%.3f", accounted) +
                  " J vs ground-truth active " +
                  fmt("%.3f", truth_active) + " J (error " +
                  fmt("%.3f", fraction) + ")",
              os::NoRequest, fraction, driftAlertsTotal_);
    }
}

void
WatchdogSet::checkRecalibration(sim::SimTime now)
{
    if (recalibrator_ == nullptr)
        return;
    std::uint64_t rejected = recalibrator_->refitsRejected();
    std::uint64_t lowconf = recalibrator_->lowConfidenceAlignments();
    std::uint64_t d_rejected = rejected - lastRefitsRejected_;
    std::uint64_t d_lowconf = lowconf - lastLowConfidence_;
    lastRefitsRejected_ = rejected;
    lastLowConfidence_ = lowconf;
    if (now < cfg_.recalWarmup)
        return;
    if (d_rejected == 0 && d_lowconf == 0)
        return;
    alert("recalibration_health",
          "refits_rejected +" + std::to_string(d_rejected) +
              " low_confidence_alignments +" +
              std::to_string(d_lowconf),
          os::NoRequest,
          static_cast<double>(d_rejected + d_lowconf),
          recalAlertsTotal_);
}

void
WatchdogSet::checkProbes(sim::SimTime now)
{
    (void)now;
    for (Probe &p : probes_) {
        std::uint64_t v = p.fn();
        if (v != p.last) {
            p.last = v;
            p.moved = true;
            p.staleTicks = 0;
            p.alerted = false;
            continue;
        }
        if (!p.moved)
            continue; // never started; nothing to stall
        ++p.staleTicks;
        if (!p.alerted && p.staleTicks >= cfg_.stuckAfterTicks) {
            p.alerted = true;
            alert("stuck_counter",
                  p.name + " static for " +
                      std::to_string(p.staleTicks) + " ticks",
                  os::NoRequest, static_cast<double>(p.staleTicks),
                  stuckAlertsTotal_);
        }
    }
}

void
WatchdogSet::checkAnomalies(sim::SimTime now)
{
    if (anomalies_ == nullptr)
        return;
    for (const core::PowerAnomaly &a : anomalies_->scan()) {
        journal_.append(
            RecordKind::Alert, Severity::Warn, now, a.id, a.id,
            "power_anomaly",
            a.type + " mean " + fmt("%.3f", a.meanPowerW.value()) +
                " W vs fleet " + fmt("%.3f", a.fleetMeanW) + " W" +
                (a.live ? " (live)" : ""),
            a.meanPowerW.value());
        anomalyAlertsTotal_.add();
        alertsTotal_.add();
        ++alertsFired_;
    }
}

std::uint64_t
WatchdogSet::faultCounterSum() const
{
    std::uint64_t sum = 0;
    for (const telemetry::Registry::Entry &e : registry_.entries()) {
        if (e.kind != telemetry::InstrumentKind::Counter)
            continue;
        if (e.name.rfind("fault.", 0) == 0)
            sum += e.counter->value();
    }
    return sum;
}

void
WatchdogSet::checkFaultCounters(sim::SimTime now)
{
    std::uint64_t sum = faultCounterSum();
    if (!faultBaselineTaken_) {
        faultBaselineTaken_ = true;
        lastFaultSum_ = sum;
        return;
    }
    if (sum == lastFaultSum_)
        return;
    std::uint64_t delta = sum - lastFaultSum_;
    lastFaultSum_ = sum;
    journal_.append(RecordKind::Fault, Severity::Warn, now,
                    os::NoRequest, os::NoRequest, "fault_injection",
                    "fault.* counters advanced by " +
                        std::to_string(delta),
                    static_cast<double>(delta));
    faultRecordsTotal_.add();
}

void
WatchdogSet::evaluate()
{
    sim::SimTime now = kernel_.simulation().now();
    ++evaluations_;
    evaluationsTotal_.add();
    checkCaps(now);
    checkDrift(now);
    checkRecalibration(now);
    checkProbes(now);
    checkAnomalies(now);
    checkFaultCounters(now);
    journalRecordsGauge_.set(
        static_cast<double>(journal_.totalAppended()));
    journalDroppedGauge_.set(static_cast<double>(journal_.dropped()));
}

} // namespace obs
} // namespace pcon
