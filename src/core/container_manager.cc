#include "container_manager.h"

#include <cmath>

#include "os/task.h"
#include "util/audit.h"
#include "util/logging.h"

namespace pcon {
namespace core {

ContainerManager::ContainerManager(
    os::Kernel &kernel, std::shared_ptr<LinearPowerModel> model,
    const ContainerManagerConfig &cfg)
    : kernel_(kernel), model_(std::move(model)), cfg_(cfg),
      cores_(static_cast<std::size_t>(kernel.machine().totalCores()))
{
    util::fatalIf(!model_, "ContainerManager needs a model");
    background_ =
        std::make_shared<PowerContainer>(os::NoRequest, "background");

    sim::SimTime now = kernel_.simulation().now();
    for (int c = 0; c < kernel_.machine().totalCores(); ++c) {
        cores_[c].lastSnapshot = kernel_.machine().readCounters(c);
        cores_[c].windowStart = now;
        cores_[c].recentUtilTime = now;
    }

    kernel_.requests().onCreate(
        [this](const os::RequestInfo &i) { requestCreated(i); });
    kernel_.requests().onComplete(
        [this](const os::RequestInfo &i) { requestCompleted(i); });

    // Piggyback container statistics on outgoing socket messages so a
    // dispatcher machine can account cross-machine requests from the
    // response tags alone (Section 3.4).
    kernel_.setStatsProvider([this](os::RequestId id) {
        os::RequestStatsTag tag;
        PowerContainer *c = container(id);
        if (c == nullptr)
            return tag;
        // Close any open attribution window of this request so the
        // tag reflects usage up to the send instant.
        for (int core = 0; core < kernel_.machine().totalCores();
             ++core) {
            os::Task *running = kernel_.runningTask(core);
            if (running != nullptr && running->context == id)
                sampleCore(core);
        }
        tag.present = true;
        tag.cpuTimeNs = c->cpuTimeNs();
        tag.energyJ = c->totalEnergyJ();
        tag.lastPowerW = c->lastPowerW();
        return tag;
    });
}

void
ContainerManager::onContextSwitch(int core, os::Task *prev,
                                  os::Task *next)
{
    (void)prev;
    sampleCore(core);
    CoreAccounting &ca = cores_[core];
    if (next == nullptr) {
        ca.active = nullptr;
        return;
    }
    if (next->context == os::NoRequest) {
        ca.active = background_;
        return;
    }
    auto it = containers_.find(next->context);
    ca.active = it != containers_.end() ? it->second : background_;
}

void
ContainerManager::onContextRebind(os::Task &task, os::RequestId old_ctx,
                                  os::RequestId new_ctx)
{
    (void)old_ctx;
    if (task.core < 0)
        return; // not running: no open window to split
    sampleCore(task.core);
    auto it = containers_.find(new_ctx);
    cores_[task.core].active =
        it != containers_.end() ? it->second : background_;
}

void
ContainerManager::onSamplingInterrupt(int core)
{
    sampleCore(core);
}

void
ContainerManager::onIoComplete(hw::DeviceKind device,
                               os::RequestId context,
                               sim::SimTime busy_time, double bytes)
{
    Metric metric =
        device == hw::DeviceKind::Disk ? Metric::Disk : Metric::Net;
    util::Joules energy{model_->coefficient(metric) *
                        sim::toSeconds(busy_time)};
    PCON_AUDIT_MSG(busy_time >= 0 && std::isfinite(energy.value()) &&
                       energy.value() >= 0,
                   "device attribution charged ", energy, " J over ",
                   busy_time, " ns of busy time");
    PowerContainer &target = containerOrBackground(context);
    target.chargeIo(energy);
    accountedEnergyJ_ += energy;
    if (ioListeners_.empty())
        return;
    IoCharge charge{device, target.id(), energy, busy_time, bytes};
    for (const IoListener &fn : ioListeners_)
        fn(charge);
}

PowerContainer *
ContainerManager::container(os::RequestId id)
{
    auto it = containers_.find(id);
    return it == containers_.end() ? nullptr : it->second.get();
}

PowerContainer &
ContainerManager::containerOrBackground(os::RequestId id)
{
    if (id == os::NoRequest)
        return *background_;
    auto it = containers_.find(id);
    return it == containers_.end() ? *background_ : *it->second;
}

void
ContainerManager::sampleCore(int core)
{
    CoreAccounting &ca = cores_[core];
    hw::Machine &machine = kernel_.machine();
    sim::SimTime now = kernel_.simulation().now();

    hw::CounterSnapshot current = machine.readCounters(core);
    hw::CounterSnapshot delta = current.minus(ca.lastSnapshot);
    PCON_AUDIT_MSG(delta.elapsedCycles >= 0,
                   "counter window on core ", core,
                   " ran backwards by ", -delta.elapsedCycles,
                   " cycles");

    // Uncompensated observer injections (the Section 3.5 ablation)
    // stay in this window's non-halt cycles but took no elapsed time.
    [[maybe_unused]] const double uncompensated =
        cfg_.compensateObserverEffect
        ? 0.0
        : ca.pendingObserver.nonhaltCycles;
    if (cfg_.compensateObserverEffect) {
        delta = delta.minus(ca.pendingObserver);
        delta.clampNonNegative();
    }
    ca.pendingObserver = hw::CounterSnapshot{};

    if (delta.elapsedCycles > 0) {
        Metrics metrics = Metrics::fromCounterDelta(delta);
        double util = metrics.get(Metric::Core);
        // A fully busy window may exceed 1 by the injected cycles
        // over its elapsed cycles, and by no more than 0.1 otherwise.
        PCON_AUDIT_MSG(util >= 0 &&
                           util <= 1.1 +
                                   uncompensated / delta.elapsedCycles,
                       "core utilization ", util, " outside [0, 1] on core ",
                       core, " (", uncompensated,
                       " uncompensated observer cycles)");
        if (cfg_.useChipShare)
            metrics.set(Metric::ChipShare, chipShare(core, util));

        if (ca.active) {
            util::Watts power_w{model_->estimateActiveW(metrics)};
            util::SimSeconds window_s =
                sim::toSimSeconds(now - ca.windowStart);
            util::Joules energy = power_w * window_s;
            PCON_AUDIT_MSG(window_s.value() >= 0 &&
                               std::isfinite(energy.value()) &&
                               energy.value() >= 0,
                           "attribution window on core ", core,
                           " charged ", energy, " J over ", window_s,
                           " s");
            accountedEnergyJ_ += energy;
            double cpu_ns =
                delta.nonhaltCycles / machine.config().freqGhz;
            ca.active->chargeCpuWindow(energy, cpu_ns, delta, power_w);
            if (!windowListeners_.empty()) {
                WindowCharge w{core, kernel_.runningTask(core),
                               ca.active->id(), energy, cpu_ns,
                               delta, power_w};
                for (const WindowListener &fn : windowListeners_)
                    fn(w);
            }
        }

        // Publish this window's utilization for siblings' Equation 3.
        ca.recentUtil = util;
        ca.recentUtilTime = now;
    }

    // Observer effect: this very operation perturbs the counters.
    // The injected events land *after* `current` was read, so they
    // fall into the next window and pendingObserver subtracts them
    // there (when compensation is on).
    if (cfg_.injectObserverEffect) {
        machine.injectCounterEvents(core, cfg_.observerCost);
        ca.pendingObserver = cfg_.observerCost;
    }

    ca.lastSnapshot = current;
    ca.windowStart = now;
    ++maintenanceOps_;
}

double
ContainerManager::chipShare(int core, double my_util)
{
    const hw::MachineConfig &mc = kernel_.machine().config();
    int chip = mc.chipOf(core);
    int first = chip * mc.coresPerChip;
    double sibling_sum = 0.0;
    for (int i = first; i < first + mc.coresPerChip; ++i) {
        if (i == core)
            continue;
        // An idle sibling samples nothing, so its last sample can be
        // stale; if the OS is scheduling the idle task there, treat
        // its activity as zero (Section 3.1).
        if (cfg_.idleSiblingCheck && kernel_.runningTask(i) == nullptr)
            continue;
        sibling_sum += cores_[i].recentUtil;
    }
    return my_util / (1.0 + sibling_sum);
}

void
ContainerManager::requestCreated(const os::RequestInfo &info)
{
    containers_.emplace(
        info.id, std::make_shared<PowerContainer>(info.id, info.type));
}

void
ContainerManager::requestCompleted(const os::RequestInfo &info)
{
    auto it = containers_.find(info.id);
    if (it == containers_.end())
        return;
    // Close any open window still charging this request so its final
    // slice of execution lands in the record (completion is an
    // accounting boundary, like a request context switch).
    for (int core = 0; core < kernel_.machine().totalCores(); ++core)
        if (cores_[core].active == it->second)
            sampleCore(core);
    const PowerContainer &c = *it->second;
    RequestRecord record;
    record.id = c.id();
    record.type = c.type();
    record.created = info.created;
    record.completed = info.completed;
    record.events = c.events();
    record.cpuEnergyJ = c.cpuEnergyJ();
    record.ioEnergyJ = c.ioEnergyJ();
    record.cpuTimeNs = c.cpuTimeNs();
    record.meanPowerW = c.meanPowerW();
    completedEnergyJ_ += record.totalEnergyJ();
    records_.push_back(record);
    // Release the container state; any core still mid-window holds a
    // shared_ptr and finishes its attribution safely.
    containers_.erase(it);
    for (const RecordListener &fn : recordListeners_)
        fn(record);
}

} // namespace core
} // namespace pcon
