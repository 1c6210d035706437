#include "fault_injector.h"

#include <algorithm>
#include <cmath>

#include "os/task.h"
#include "util/logging.h"

namespace pcon {
namespace fault {

std::uint64_t
FaultCounts::total() const
{
    return meterDropped + meterOutageDropped + meterDuplicated +
        meterJittered + meterQuantized + counterStuckReads +
        counterSaturatedReads + segmentsLost + segmentsDuplicated +
        segmentsReordered + segmentsStaleTagged + tasksKilled +
        stormForks;
}

FaultInjector::FaultInjector(sim::Simulation &sim,
                             const FaultPlan &plan)
    : sim_(sim), plan_(plan), rng_(plan.seed)
{}

void
FaultInjector::note(const char *kind,
                    std::uint64_t FaultCounts::*field,
                    const char *metric)
{
    std::uint64_t tally = ++(counts_.*field);
    if (registry_ != nullptr)
        registry_->counter(metric).add(1);
    if (perfetto_ != nullptr)
        perfetto_->noteFault(kind, static_cast<double>(tally));
}

// --- power meter ---

void
FaultInjector::attachMeter(hw::PowerMeter &meter)
{
    meter.setDeliveryPerturber(
        [this](const hw::PowerMeter::Sample &sample) {
            return perturbMeterSample(sample);
        });
}

std::vector<hw::PowerMeter::Sample>
FaultInjector::perturbMeterSample(const hw::PowerMeter::Sample &sample)
{
    const MeterFaults &mf = plan_.meter;
    for (const MeterOutage &o : mf.outages) {
        if (sample.intervalEnd >= o.start &&
            sample.intervalEnd < o.start + o.duration) {
            note("meter outage drop", &FaultCounts::meterOutageDropped,
                 "fault.meter_outage_dropped");
            return {};
        }
    }
    if (mf.dropProbability > 0 && rng_.chance(mf.dropProbability)) {
        note("meter drop", &FaultCounts::meterDropped,
             "fault.meter_dropped");
        return {};
    }
    hw::PowerMeter::Sample out = sample;
    if (mf.quantizeStepW > 0) {
        double q = std::floor(out.watts.value() / mf.quantizeStepW) *
            mf.quantizeStepW;
        if (q != out.watts.value()) {
            out.watts = util::Watts(q);
            note("meter quantize", &FaultCounts::meterQuantized,
                 "fault.meter_quantized");
        }
    }
    if (mf.jitterProbability > 0 && mf.maxJitter > 0 &&
        rng_.chance(mf.jitterProbability)) {
        out.deliveredAt += static_cast<sim::SimTime>(
            rng_.uniform(0.0, static_cast<double>(mf.maxJitter)));
        note("meter jitter", &FaultCounts::meterJittered,
             "fault.meter_jittered");
    }
    if (mf.duplicateProbability > 0 &&
        rng_.chance(mf.duplicateProbability)) {
        note("meter duplicate", &FaultCounts::meterDuplicated,
             "fault.meter_duplicated");
        return {out, out};
    }
    return {out};
}

// --- counters ---

void
FaultInjector::attachCounters(hw::Machine &machine)
{
    machine.setCounterFaultHook(
        [this](int core, hw::CounterSnapshot &snapshot) {
            perturbCounters(core, snapshot);
        });
}

void
FaultInjector::perturbCounters(int core, hw::CounterSnapshot &snapshot)
{
    const CounterFaults &cf = plan_.counters;
    if (core != cf.stuckCore)
        return;
    sim::SimTime now = sim_.now();
    bool in_window = now >= cf.stuckFrom &&
        (cf.stuckFor == 0 || now < cf.stuckFrom + cf.stuckFor);
    if (cf.stuckCore >= 0 && in_window) {
        if (!stuckCaptured_) {
            stuckSnapshot_ = snapshot;
            stuckCaptured_ = true;
        }
        snapshot = stuckSnapshot_;
        note("counter stuck", &FaultCounts::counterStuckReads,
             "fault.counter_stuck_reads");
        return;
    }
    if (cf.saturateCycles > 0 &&
        snapshot.nonhaltCycles > cf.saturateCycles) {
        snapshot.nonhaltCycles = cf.saturateCycles;
        note("counter saturate", &FaultCounts::counterSaturatedReads,
             "fault.counter_saturated_reads");
    }
}

// --- sockets ---

void
FaultInjector::attachSockets(os::Kernel &kernel)
{
    kernel.setSegmentPerturber([this](const os::Segment &segment) {
        return perturbSegment(segment);
    });
}

std::vector<os::SegmentDelivery>
FaultInjector::perturbSegment(const os::Segment &segment)
{
    const SocketFaults &sf = plan_.sockets;
    // Remember the genuine tag before any rewriting so a later
    // stale-tag fault has an honest (but out-of-date) tag to replay.
    os::RequestStatsTag previous{};
    bool have_previous = false;
    if (segment.stats.present) {
        auto it = lastTags_.find(segment.context);
        if (it != lastTags_.end()) {
            previous = it->second;
            have_previous = true;
        }
        lastTags_[segment.context] = segment.stats;
    }
    if (sf.lossProbability > 0 && rng_.chance(sf.lossProbability)) {
        note("segment loss", &FaultCounts::segmentsLost,
             "fault.segment_lost");
        return {};
    }
    os::SegmentDelivery d;
    d.segment = segment;
    if (segment.stats.present && sf.staleTagProbability > 0 &&
        rng_.chance(sf.staleTagProbability)) {
        if (have_previous)
            d.segment.stats = previous;
        else
            d.segment.stats = os::RequestStatsTag{};
        note("segment stale tag", &FaultCounts::segmentsStaleTagged,
             "fault.segment_stale_tag");
    }
    if (sf.reorderProbability > 0 &&
        rng_.chance(sf.reorderProbability)) {
        d.extraDelay = sf.reorderDelay;
        note("segment reorder", &FaultCounts::segmentsReordered,
             "fault.segment_reordered");
    }
    if (sf.duplicateProbability > 0 &&
        rng_.chance(sf.duplicateProbability)) {
        note("segment duplicate", &FaultCounts::segmentsDuplicated,
             "fault.segment_duplicated");
        return {d, d};
    }
    return {d};
}

// --- tasks ---

void
FaultInjector::attachTasks(os::Kernel &kernel)
{
    taskKernel_ = &kernel;
}

void
FaultInjector::killOneRequestTask()
{
    if (taskKernel_ == nullptr)
        return;
    // Victims are live tasks bound to a real request context —
    // killing an idle server worker would not model a mid-request
    // failure. liveTaskIds() is sorted, so the pick is deterministic.
    std::vector<os::TaskId> victims;
    for (os::TaskId id : taskKernel_->liveTaskIds()) {
        os::Task *task = taskKernel_->findTask(id);
        if (task != nullptr && task->context != os::NoRequest)
            victims.push_back(id);
    }
    if (victims.empty()) {
        util::inform("fault: task.kill found no in-request victim at ",
                     sim_.now(), " ns; skipping");
        return;
    }
    os::TaskId victim = victims[static_cast<std::size_t>(
        rng_.uniformInt(0, static_cast<std::int64_t>(victims.size()) -
                               1))];
    if (taskKernel_->kill(victim))
        note("task kill", &FaultCounts::tasksKilled, "fault.task_kills");
}

void
FaultInjector::startForkStorm()
{
    if (taskKernel_ == nullptr)
        return;
    const TaskFaults &tf = plan_.tasks;
    double cycles = tf.forkStormCycles;
    for (int i = 0; i < tf.forkStormTasks; ++i) {
        auto logic = std::make_shared<os::ScriptedLogic>(
            std::vector<os::ScriptedLogic::Step>{
                [cycles](os::Kernel &, os::Task &,
                         const os::OpResult &) -> os::Op {
                    return os::ComputeOp{hw::ActivityVector{}, cycles};
                }});
        taskKernel_->spawn(logic,
                           "storm-" + std::to_string(i));
        note("fork storm spawn", &FaultCounts::stormForks,
             "fault.forks_spawned");
    }
}

// --- observers ---

void
FaultInjector::attachTelemetry(telemetry::Registry &registry)
{
    registry_ = &registry;
}

void
FaultInjector::attachPerfetto(telemetry::PerfettoExporter &exporter)
{
    perfetto_ = &exporter;
}

void
FaultInjector::arm()
{
    util::panicIf(armed_, "FaultInjector::arm called twice");
    armed_ = true;
    sim::SimTime now = sim_.now();
    std::vector<sim::SimTime> kills = plan_.tasks.killAt;
    std::sort(kills.begin(), kills.end());
    for (sim::SimTime at : kills) {
        sim::SimTime wait = at > now ? at - now : 0;
        sim_.schedule(wait, [this] { killOneRequestTask(); });
    }
    if (plan_.tasks.forkStormTasks > 0) {
        sim::SimTime at = plan_.tasks.forkStormAt;
        sim::SimTime wait = at > now ? at - now : 0;
        sim_.schedule(wait, [this] { startForkStorm(); });
    }
}

} // namespace fault
} // namespace pcon
