#include "machine.h"

#include <cmath>

#include "util/audit.h"
#include "util/logging.h"

namespace pcon {
namespace hw {

using util::fatalIf;
using util::panicIf;

Machine::Machine(sim::Simulation &simulation, const MachineConfig &cfg)
    : sim_(simulation), cfg_(cfg),
      start_(simulation.now()),
      cores_(static_cast<std::size_t>(cfg.totalCores()),
             CoreState{.dutyLevel = cfg.dutyDenom, .since = start_}),
      chips_(static_cast<std::size_t>(cfg.chips), Integrator{.since = start_}),
      disk_{.since = start_}, net_{.since = start_}
{
    fatalIf(cfg.chips <= 0 || cfg.coresPerChip <= 0,
            "machine needs at least one chip and core");
    fatalIf(cfg.freqGhz <= 0, "machine frequency must be positive");
    fatalIf(cfg.dutyDenom < 2, "duty denominator must be >= 2");
    fatalIf(cfg.pstates.empty() || cfg.pstates.front() != 1.0,
            "P-state table must start at ratio 1.0");
    for (double ratio : cfg.pstates)
        fatalIf(ratio <= 0.0 || ratio > 1.0,
                "P-state ratio out of (0, 1]: ", ratio);
}

void
Machine::checkCore(int core) const
{
    panicIf(core < 0 || core >= totalCores(),
            "core index out of range: ", core);
}

void
Machine::checkChip(int chip) const
{
    panicIf(chip < 0 || chip >= cfg_.chips,
            "chip index out of range: ", chip);
}

void
Machine::setRunning(int core, const ActivityVector &activity)
{
    fold(core);
    cores_[core].busy = true;
    cores_[core].activity = activity;
    refresh(core);
}

void
Machine::setIdle(int core)
{
    fold(core);
    cores_[core].busy = false;
    refresh(core);
}

bool
Machine::isBusy(int core) const
{
    checkCore(core);
    return cores_[core].busy;
}

const ActivityVector &
Machine::activity(int core) const
{
    checkCore(core);
    panicIf(!cores_[core].busy, "activity() on an idle core");
    return cores_[core].activity;
}

void
Machine::setDutyLevel(int core, int level)
{
    checkCore(core);
    fatalIf(level < 1 || level > cfg_.dutyDenom,
            "duty level ", level, " out of 1..", cfg_.dutyDenom);
    fold(core);
    cores_[core].dutyLevel = level;
    refresh(core);
}

int
Machine::dutyLevel(int core) const
{
    checkCore(core);
    return cores_[core].dutyLevel;
}

double
Machine::dutyFraction(int core) const
{
    checkCore(core);
    return static_cast<double>(cores_[core].dutyLevel) /
        static_cast<double>(cfg_.dutyDenom);
}

double
Machine::workRateHz(int core) const
{
    checkCore(core);
    return cfg_.freqGhz * 1e9 * dutyFraction(core) *
        pstateRatio(core);
}

void
Machine::setPState(int core, int pstate)
{
    checkCore(core);
    fatalIf(pstate < 0 ||
                pstate >= static_cast<int>(cfg_.pstates.size()),
            "P-state ", pstate, " out of 0..",
            cfg_.pstates.size() - 1);
    fold(core);
    cores_[core].pstate = pstate;
    refresh(core);
}

int
Machine::pstate(int core) const
{
    checkCore(core);
    return cores_[core].pstate;
}

double
Machine::pstateRatio(int core) const
{
    checkCore(core);
    return cfg_.pstates[cores_[core].pstate];
}

double
Machine::pstatePowerScale(double ratio)
{
    double voltage = 0.6 + 0.4 * ratio;
    return ratio * voltage * voltage;
}

CounterSnapshot
Machine::readCounters(int core) const
{
    checkCore(core);
    CounterSnapshot snapshot = countersAt(core, sim_.now());
    if (counterFaultHook_)
        counterFaultHook_(core, snapshot);
    return snapshot;
}

void
Machine::setCounterFaultHook(CounterFaultHook fn)
{
    counterFaultHook_ = std::move(fn);
}

void
Machine::injectCounterEvents(int core, const CounterSnapshot &extra)
{
    fold(core);
    cores_[core].counters.accumulate(extra);
    cores_[core].injectedNonhaltCycles += extra.nonhaltCycles;
}

double
Machine::injectedNonhaltCycles(int core) const
{
    checkCore(core);
    return cores_[core].injectedNonhaltCycles;
}

void
Machine::setDeviceBusy(DeviceKind kind, bool busy)
{
    bool disk = kind == DeviceKind::Disk;
    Integrator &device = disk ? disk_ : net_;
    int &count = disk ? diskBusy_ : netBusy_;
    device.fold(sim_.now());
    count += busy ? 1 : -1;
    panicIf(count < 0, "device busy refcount underflow");
    device.powerW = util::Watts(
        count == 0 ? 0.0
                   : (disk ? cfg_.truth.diskActiveW
                           : cfg_.truth.netActiveW));
}

bool
Machine::deviceBusy(DeviceKind kind) const
{
    return (kind == DeviceKind::Disk ? diskBusy_ : netBusy_) > 0;
}

util::Watts
Machine::coreActiveW(int core) const
{
    if (!cores_[core].busy)
        return util::Watts(0);
    const GroundTruthParams &t = cfg_.truth;
    const ActivityVector &a = cores_[core].activity;
    double duty = dutyFraction(core);
    double linear = t.coreBusyW + a.ipc * t.insW +
        a.flopsPerCycle * t.flopW + a.llcPerCycle * t.llcW +
        a.memPerCycle * t.memW;
    double interaction = t.nlCacheMemW *
        (a.llcPerCycle / t.nlLlcNorm) * (a.memPerCycle / t.nlMemNorm);
    double dvfs = pstatePowerScale(pstateRatio(core));
    return util::Watts((linear + interaction) * duty * dvfs);
}

CounterSnapshot
Machine::countersAt(int core, sim::SimTime now) const
{
    // The elapsed reference advances at the nominal rate (invariant
    // TSC); non-halt cycles advance at the core's effective clock.
    const CoreState &state = cores_[core];
    CounterSnapshot counters = state.counters;
    double elapsed_cycles =
        cfg_.cyclesPerNs() * static_cast<double>(now - state.since);
    counters.elapsedCycles += elapsed_cycles;
    if (!state.busy)
        return counters;
    double cycles =
        elapsed_cycles * dutyFraction(core) * pstateRatio(core);
    counters.nonhaltCycles += cycles;
    counters.instructions += cycles * state.activity.ipc;
    counters.flops += cycles * state.activity.flopsPerCycle;
    counters.llcRefs += cycles * state.activity.llcPerCycle;
    counters.memTxns += cycles * state.activity.memPerCycle;
    return counters;
}

void
Machine::Integrator::fold(sim::SimTime now)
{
    panicIf(now < since, "machine clock went backwards");
    energyJ = at(now);
    since = now;
}

void
Machine::fold(int core)
{
    checkCore(core);
    sim::SimTime now = sim_.now();
    chips_[cfg_.chipOf(core)].fold(now);
    CoreState &state = cores_[core];
    state.counters = countersAt(core, now);
    state.since = now;
    // Duty modulation and DVFS can only slow a core, never push
    // non-halt cycles past the elapsed reference. Injected observer
    // events are the one sanctioned exception; they are left out,
    // since maintenance sampled often enough on a busy core (every
    // 10 us in the GoldenShapes ledger loop) injects ~9% of the
    // elapsed cycles, past the bound's 5% slack.
    PCON_AUDIT_MSG(state.counters.nonhaltCycles -
                           state.injectedNonhaltCycles <=
                       state.counters.elapsedCycles * 1.05 + 1e7,
                   "core ", core,
                   "'s non-halt cycles outran its elapsed reference");
}

void
Machine::refresh(int core)
{
    cores_[core].activeW = coreActiveW(core);
    int chip = cfg_.chipOf(core);
    util::Watts power{0};
    bool any_busy = false;
    int first = chip * cfg_.coresPerChip;
    for (int c = first; c < first + cfg_.coresPerChip; ++c) {
        any_busy = any_busy || cores_[c].busy;
        power += cores_[c].activeW;
    }
    if (any_busy)
        power += util::Watts(cfg_.truth.chipMaintenanceW);
    PCON_AUDIT_MSG(std::isfinite(power.value()) && power.value() >= 0,
                   "chip ", chip, " ground-truth active power ", power,
                   " W is negative or not finite");
    chips_[chip].powerW = power;
}

util::Watts
Machine::truePowerW() const
{
    return util::Watts(cfg_.truth.machineIdleW) + trueActivePowerW();
}

util::Watts
Machine::trueActivePowerW() const
{
    util::Watts active = disk_.powerW + net_.powerW;
    for (const Integrator &chip : chips_)
        active += chip.powerW;
    return active;
}

util::Watts
Machine::truePackagePowerW(int chip) const
{
    checkChip(chip);
    return util::Watts(cfg_.truth.packageIdleW) + chips_[chip].powerW;
}

util::Joules
Machine::machineEnergyJ() const
{
    sim::SimTime now = sim_.now();
    util::Joules energy = util::Watts(cfg_.truth.machineIdleW) *
        sim::toSimSeconds(now - start_);
    for (const Integrator &chip : chips_)
        energy += chip.at(now);
    return energy + disk_.at(now) + net_.at(now);
}

util::Joules
Machine::packageEnergyJ(int chip) const
{
    checkChip(chip);
    sim::SimTime now = sim_.now();
    return util::Watts(cfg_.truth.packageIdleW) *
        sim::toSimSeconds(now - start_) + chips_[chip].at(now);
}

util::Joules
Machine::deviceEnergyJ(DeviceKind kind) const
{
    return (kind == DeviceKind::Disk ? disk_ : net_).at(sim_.now());
}

} // namespace hw
} // namespace pcon
