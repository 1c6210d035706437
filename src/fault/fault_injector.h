/**
 * @file
 * Deterministic, simulation-scheduled fault injection. A
 * FaultInjector executes one FaultPlan against a live system by
 * installing perturbation hooks at the real interfaces — power-meter
 * delivery, counter reads, socket segments — and scheduling
 * task-level chaos (kills, fork storms) on the simulation clock.
 * Every injected event is counted, optionally published as a
 * `fault.*` telemetry counter, and optionally marked on the Perfetto
 * trace, so degradation is observable rather than silent.
 *
 * Determinism: all randomness comes from one private sim::Rng seeded
 * by the plan, drawn in simulation order. Same plan + same workload
 * seed => identical fault sequence, byte-identical traces.
 */

#ifndef PCON_FAULT_FAULT_INJECTOR_H
#define PCON_FAULT_FAULT_INJECTOR_H

#include <cstdint>
#include <map>

#include "fault/fault_plan.h"
#include "hw/machine.h"
#include "hw/power_meter.h"
#include "os/kernel.h"
#include "sim/rng.h"
#include "telemetry/perfetto.h"
#include "telemetry/registry.h"

namespace pcon {
namespace fault {

/** Everything the injector has done so far. */
struct FaultCounts
{
    std::uint64_t meterDropped = 0;
    std::uint64_t meterOutageDropped = 0;
    std::uint64_t meterDuplicated = 0;
    std::uint64_t meterJittered = 0;
    std::uint64_t meterQuantized = 0;
    std::uint64_t counterStuckReads = 0;
    std::uint64_t counterSaturatedReads = 0;
    std::uint64_t segmentsLost = 0;
    std::uint64_t segmentsDuplicated = 0;
    std::uint64_t segmentsReordered = 0;
    std::uint64_t segmentsStaleTagged = 0;
    std::uint64_t tasksKilled = 0;
    std::uint64_t stormForks = 0;

    /** Sum over every category. */
    std::uint64_t total() const;
};

/**
 * Executes one FaultPlan. Attach the interfaces to perturb, then
 * arm(). Attachments install hooks immediately; probabilistic faults
 * fire as traffic flows, scheduled faults (outages, kills, storms)
 * are armed on the simulation clock by arm().
 *
 * One injector owns the perturber slot of everything it attaches;
 * attaching a second injector to the same meter/kernel/machine
 * replaces the first.
 */
class FaultInjector
{
  public:
    FaultInjector(sim::Simulation &sim, const FaultPlan &plan);

    /** Perturb a power meter's sample delivery. */
    void attachMeter(hw::PowerMeter &meter);

    /** Perturb counter reads of the plan's stuck/saturated core. */
    void attachCounters(hw::Machine &machine);

    /** Perturb outbound tagged segments of a kernel's sockets. */
    void attachSockets(os::Kernel &kernel);

    /** Target task-level faults (kills, fork storm) at a kernel. */
    void attachTasks(os::Kernel &kernel);

    /** Publish `fault.*` counters into a metrics registry. */
    void attachTelemetry(telemetry::Registry &registry);

    /** Mark injected events on a Perfetto trace. */
    void attachPerfetto(telemetry::PerfettoExporter &exporter);

    /**
     * Schedule the plan's time-based faults (kills, fork storm)
     * relative to the current simulation time. Probabilistic hooks
     * are live from attachment; arm() is only needed for scheduled
     * events and may be called once.
     */
    void arm();

    /** Snapshot of the injection tallies so far. */
    FaultCounts counts() const { return counts_; }

    /** The plan being executed. */
    const FaultPlan &plan() const { return plan_; }

  private:
    std::vector<hw::PowerMeter::Sample>
    perturbMeterSample(const hw::PowerMeter::Sample &sample);
    void perturbCounters(int core, hw::CounterSnapshot &snapshot);
    std::vector<os::SegmentDelivery>
    perturbSegment(const os::Segment &segment);
    void killOneRequestTask();
    void startForkStorm();

    /**
     * Count one injected event: bump the named tally, then publish
     * it to the registry counter and the Perfetto track.
     */
    void note(const char *kind, std::uint64_t FaultCounts::*field,
              const char *metric);

    sim::Simulation &sim_;
    FaultPlan plan_;
    sim::Rng rng_;
    bool armed_ = false;
    os::Kernel *taskKernel_ = nullptr;
    telemetry::Registry *registry_ = nullptr;
    telemetry::PerfettoExporter *perfetto_ = nullptr;

    /** Frozen snapshot for the stuck-at counter fault. */
    bool stuckCaptured_ = false;
    hw::CounterSnapshot stuckSnapshot_{};

    /** Last genuine stats tag seen per context (stale-tag replay). */
    std::map<os::RequestId, os::RequestStatsTag> lastTags_;

    FaultCounts counts_;
};

} // namespace fault
} // namespace pcon

#endif // PCON_FAULT_FAULT_INJECTOR_H
