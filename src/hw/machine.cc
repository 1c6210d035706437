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
      cores_(static_cast<std::size_t>(cfg.totalCores())),
      chipActiveCacheW_(static_cast<std::size_t>(cfg.chips), 0.0),
      chipActiveCacheValid_(static_cast<std::size_t>(cfg.chips),
                            false),
      packageEnergyJ_(static_cast<std::size_t>(cfg.chips),
                      util::Joules(0)),
      lastSync_(simulation.now())
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
    for (auto &core : cores_) {
        core.dutyLevel = cfg.dutyDenom;
        core.dutyFrac = 1.0;
    }
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
    checkCore(core);
    sync();
    cores_[core].busy = true;
    cores_[core].activity = activity;
    invalidateChipPower(core);
}

void
Machine::setIdle(int core)
{
    checkCore(core);
    sync();
    cores_[core].busy = false;
    invalidateChipPower(core);
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
    sync();
    cores_[core].dutyLevel = level;
    cores_[core].dutyFrac = static_cast<double>(level) /
        static_cast<double>(cfg_.dutyDenom);
    invalidateChipPower(core);
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
    return cores_[core].dutyFrac;
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
    sync();
    cores_[core].pstate = pstate;
    invalidateChipPower(core);
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
Machine::readCounters(int core)
{
    checkCore(core);
    sync();
    CounterSnapshot snapshot = cores_[core].counters;
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
    checkCore(core);
    sync();
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
    sync();
    int &count = (kind == DeviceKind::Disk) ? diskBusy_ : netBusy_;
    count += busy ? 1 : -1;
    panicIf(count < 0, "device busy refcount underflow");
}

bool
Machine::deviceBusy(DeviceKind kind) const
{
    return (kind == DeviceKind::Disk ? diskBusy_ : netBusy_) > 0;
}

double
Machine::coreActiveW(const CoreState &core) const
{
    if (!core.busy)
        return 0.0;
    const GroundTruthParams &t = cfg_.truth;
    const ActivityVector &a = core.activity;
    double duty = core.dutyFrac;
    double linear = t.coreBusyW + a.ipc * t.insW +
        a.flopsPerCycle * t.flopW + a.llcPerCycle * t.llcW +
        a.memPerCycle * t.memW;
    double interaction = t.nlCacheMemW *
        (a.llcPerCycle / t.nlLlcNorm) * (a.memPerCycle / t.nlMemNorm);
    double dvfs = pstatePowerScale(cfg_.pstates[core.pstate]);
    return (linear + interaction) * duty * dvfs;
}

void
Machine::invalidateChipPower(int core)
{
    chipActiveCacheValid_[static_cast<std::size_t>(
        core / cfg_.coresPerChip)] = false;
}

double
Machine::chipActiveW(int chip) const
{
    if (chipActiveCacheValid_[chip])
        return chipActiveCacheW_[chip];
    // Recompute with the exact full-sum loop (never incrementally),
    // so the memoized value is bit-identical to an unmemoized one.
    // pcon-lint: allow(units) ground-truth internal; callers wrap in Watts
    double power = 0.0;
    bool any_busy = false;
    int first = chip * cfg_.coresPerChip;
    for (int c = first; c < first + cfg_.coresPerChip; ++c) {
        if (cores_[c].busy)
            any_busy = true;
        power += coreActiveW(cores_[c]);
    }
    if (any_busy)
        power += cfg_.truth.chipMaintenanceW;
    chipActiveCacheW_[chip] = power;
    chipActiveCacheValid_[chip] = true;
    return power;
}

util::Watts
Machine::devicePowerW() const
{
    util::Watts power{0};
    if (diskBusy_ > 0)
        power += util::Watts(cfg_.truth.diskActiveW);
    if (netBusy_ > 0)
        power += util::Watts(cfg_.truth.netActiveW);
    return power;
}

util::Watts
Machine::truePowerW() const
{
    return util::Watts(cfg_.truth.machineIdleW) + trueActivePowerW();
}

util::Watts
Machine::trueActivePowerW() const
{
    double active = devicePowerW().value();
    for (int chip = 0; chip < cfg_.chips; ++chip)
        active += chipActiveW(chip);
    return util::Watts(active);
}

util::Watts
Machine::truePackagePowerW(int chip) const
{
    checkChip(chip);
    return util::Watts(cfg_.truth.packageIdleW + chipActiveW(chip));
}

util::Joules
Machine::machineEnergyJ()
{
    sync();
    return machineEnergyJ_;
}

util::Joules
Machine::packageEnergyJ(int chip)
{
    checkChip(chip);
    sync();
    return packageEnergyJ_[chip];
}

util::Joules
Machine::deviceEnergyJ(DeviceKind kind)
{
    sync();
    return kind == DeviceKind::Disk ? diskEnergyJ_ : netEnergyJ_;
}

void
Machine::syncSlow()
{
    sim::SimTime now = sim_.now();
    panicIf(now < lastSync_, "machine clock went backwards");
    if (now == lastSync_)
        return;
    double dt_ns = static_cast<double>(now - lastSync_);
    double dt_s = dt_ns * 1e-9;

    // Counters: piecewise-constant activity over [lastSync_, now).
    // The elapsed reference advances at the nominal rate (invariant
    // TSC); non-halt cycles advance at the core's effective clock.
    double elapsed_cycles = cfg_.cyclesPerNs() * dt_ns;
    for (auto &core : cores_) {
        core.counters.elapsedCycles += elapsed_cycles;
        if (!core.busy)
            continue;
        double cycles = elapsed_cycles * core.dutyFrac *
            cfg_.pstates[core.pstate];
        core.counters.nonhaltCycles += cycles;
        core.counters.instructions += cycles * core.activity.ipc;
        core.counters.flops += cycles * core.activity.flopsPerCycle;
        core.counters.llcRefs += cycles * core.activity.llcPerCycle;
        core.counters.memTxns += cycles * core.activity.memPerCycle;
    }

    // Energy: integrate the ground-truth power over the interval.
    util::Watts power_w = truePowerW();
    util::SimSeconds dt(dt_s);
    PCON_AUDIT_MSG(std::isfinite(power_w.value()) &&
                       power_w.value() >= cfg_.truth.machineIdleW,
                   "ground-truth power ", power_w,
                   " W fell below the idle floor ",
                   cfg_.truth.machineIdleW, " W");
    machineEnergyJ_ += power_w * dt;
    for (int chip = 0; chip < cfg_.chips; ++chip)
        packageEnergyJ_[chip] += truePackagePowerW(chip) * dt;
    if (diskBusy_ > 0)
        diskEnergyJ_ += util::Watts(cfg_.truth.diskActiveW) * dt;
    if (netBusy_ > 0)
        netEnergyJ_ += util::Watts(cfg_.truth.netActiveW) * dt;
    PCON_AUDIT_MSG(std::isfinite(machineEnergyJ_.value()) &&
                       machineEnergyJ_.value() >= 0,
                   "cumulative machine energy corrupt: ",
                   machineEnergyJ_, " J");

    // Per-core rate bound: duty modulation and DVFS can only slow a
    // core, never push non-halt cycles past the elapsed reference.
    // Injected observer events are the one sanctioned exception; they
    // are left out, since maintenance sampled often enough on a busy
    // core (every 10 us in the hot-path benches) injects ~9% of the
    // elapsed cycles, past the bound's 5% slack.
    PCON_AUDIT_SLOW(
        [this] {
            for (const auto &core : cores_)
                if (core.counters.nonhaltCycles -
                        core.injectedNonhaltCycles >
                    core.counters.elapsedCycles * 1.05 + 1e7)
                    return false;
            return true;
        }(),
        "a core's non-halt cycles outran its elapsed reference");

    lastSync_ = now;
}

} // namespace hw
} // namespace pcon
