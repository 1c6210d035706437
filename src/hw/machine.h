/**
 * @file
 * The simulated multicore machine. Cores run task activity signatures
 * under per-core duty-cycle modulation; the machine lazily integrates
 * the hidden ground-truth power into cumulative machine/package/device
 * energy and advances per-core event counters.
 *
 * The OS-facing surface mirrors what the paper's kernel facility uses
 * on real hardware: read counters, write duty-cycle levels, observe
 * meters. Ground truth (truePowerW etc.) exists for meters and tests
 * only.
 */

#ifndef PCON_HW_MACHINE_H
#define PCON_HW_MACHINE_H

#include <functional>
#include <vector>

#include "hw/activity.h"
#include "hw/config.h"
#include "hw/counters.h"
#include "sim/simulation.h"
#include "util/units.h"

namespace pcon {
namespace hw {

/** Peripheral device classes with measurable power contribution. */
enum class DeviceKind {
    Disk,
    Net,
};

/**
 * One machine in the simulation. All mutators synchronize lazily
 * integrated state (counters and energy) to the current simulated
 * time first, so power is integrated exactly over piecewise-constant
 * activity intervals.
 */
class Machine
{
  public:
    /**
     * @param simulation Event loop providing the clock.
     * @param cfg Static machine description.
     */
    Machine(sim::Simulation &simulation, const MachineConfig &cfg);

    /** Static configuration. */
    const MachineConfig &config() const { return cfg_; }

    /** Total number of cores. */
    int totalCores() const { return cfg_.totalCores(); }

    /**
     * Mark a core busy executing the given activity signature.
     * Replaces any previous activity on that core.
     */
    void setRunning(int core, const ActivityVector &activity);

    /** Mark a core idle (halted; non-halt cycles stop accruing). */
    void setIdle(int core);

    /** True when the core is executing a task. */
    bool isBusy(int core) const;

    /** Activity signature currently on the core (valid when busy). */
    const ActivityVector &activity(int core) const;

    /**
     * Set the duty-cycle modulation level, 1..dutyDenom. Writing the
     * register costs nothing in simulated time, as in hardware where
     * it is a few hundred cycles (Section 3.5).
     */
    void setDutyLevel(int core, int level);

    /** Current duty-cycle level of the core. */
    int dutyLevel(int core) const;

    /** Duty fraction = level / dutyDenom in (0, 1]. */
    double dutyFraction(int core) const;

    /**
     * Set the core's DVFS operating point (index into
     * MachineConfig::pstates; 0 = fastest). Lower P-states reduce
     * frequency linearly and active core power superlinearly
     * (voltage scales with frequency).
     */
    void setPState(int core, int pstate);

    /** Current P-state index of the core. */
    int pstate(int core) const;

    /** Frequency ratio of the core's current P-state, (0, 1]. */
    double pstateRatio(int core) const;

    /**
     * Active-power multiplier of a P-state ratio: ratio * voltage^2
     * with voltage = 0.6 + 0.4 * ratio. At ratio 1 this is 1.
     */
    // pcon-lint: allow(units) dimensionless multiplier, not a wattage
    static double pstatePowerScale(double ratio);

    /**
     * Task work-progress rate on this core in cycles per second:
     * freq * dutyFraction while busy. The OS uses this to schedule
     * compute-phase completions.
     */
    double workRateHz(int core) const;

    /** Read the core's cumulative counters (synchronizes first). */
    CounterSnapshot readCounters(int core);

    /**
     * Rewrites the snapshot readCounters() reports for a core (fault
     * injection: stuck-at or saturated counters). Operates on the
     * returned copy only — ground-truth counters and energy are
     * untouched, exactly like a misbehaving PMU read on real
     * hardware. Rewrites must keep successive reads monotone.
     */
    using CounterFaultHook =
        std::function<void(int core, CounterSnapshot &snapshot)>;

    /** Install (or clear, with nullptr) the counter fault hook. */
    void setCounterFaultHook(CounterFaultHook fn);

    /**
     * Add extra counter events to a core (the observer effect of
     * container maintenance itself, Section 3.5).
     */
    void injectCounterEvents(int core, const CounterSnapshot &extra);

    /**
     * Non-halt cycles injectCounterEvents has added to a core. They
     * carry no elapsed time, so rate bounds on the counters leave
     * them out.
     */
    double injectedNonhaltCycles(int core) const;

    /** Raise/lower a device's busy refcount (I/O in flight). */
    void setDeviceBusy(DeviceKind kind, bool busy);

    /** True when the device has at least one operation in flight. */
    bool deviceBusy(DeviceKind kind) const;

    /** Ground truth: whole-machine power right now. */
    util::Watts truePowerW() const;

    /** Ground truth: whole-machine active (full minus idle) power. */
    util::Watts trueActivePowerW() const;

    /** Ground truth: package power of one chip right now. */
    util::Watts truePackagePowerW(int chip) const;

    /** Cumulative whole-machine energy since start. */
    util::Joules machineEnergyJ();

    /** Cumulative package energy of one chip since start. */
    util::Joules packageEnergyJ(int chip);

    /** Cumulative energy of one device class since start. */
    util::Joules deviceEnergyJ(DeviceKind kind);

    /** Simulation this machine belongs to. */
    sim::Simulation &simulation() { return sim_; }

  private:
    CounterFaultHook counterFaultHook_;

    struct CoreState
    {
        bool busy = false;
        ActivityVector activity{};
        int dutyLevel = 0;          // set to denom in ctor
        int pstate = 0;             // P0 = nominal frequency
        /**
         * dutyLevel / dutyDenom, cached when the level is written:
         * the integration and power paths used to redo this division
         * per core per sync (millions per second). The cached value
         * is the very same quotient, so results are bit-identical.
         */
        double dutyFrac = 0.0;
        CounterSnapshot counters{};
        /** See injectedNonhaltCycles(). */
        double injectedNonhaltCycles = 0.0;
    };

    /**
     * Integrate counters and energy up to now. Inline fast path:
     * most calls happen repeatedly within one event timestamp, where
     * there is nothing to integrate.
     */
    void
    sync()
    {
        if (sim_.now() != lastSync_)
            syncSlow();
    }

    /** The actual integration step; called once per distinct time. */
    void syncSlow();

    /** Ground-truth active power of one core right now. */
    double coreActiveW(const CoreState &core) const;

    /**
     * Ground-truth active power of one chip (cores+maintenance),
     * memoized: the per-core sum only changes when a core on the
     * chip flips busy/idle, changes activity, duty level, or
     * P-state, so mutators drop the cached value and this recomputes
     * it from scratch — the identical full-sum loop, preserving
     * floating-point accumulation order bit for bit — on the next
     * read. sync() reads it twice per chip per interval (machine and
     * package integration), which made the old recompute-every-time
     * loop ~25% of the simulator's hot-path profile.
     */
    double chipActiveW(int chip) const;

    /** Drop the memoized chip power for the chip owning `core`. */
    void invalidateChipPower(int core);

    /** Device power right now. */
    util::Watts devicePowerW() const;

    void checkCore(int core) const;
    void checkChip(int chip) const;

    sim::Simulation &sim_;
    MachineConfig cfg_;
    std::vector<CoreState> cores_;
    /** Memoized chipActiveW values; NaN-free only when valid. */
    mutable std::vector<double> chipActiveCacheW_;
    mutable std::vector<bool> chipActiveCacheValid_;
    std::vector<util::Joules> packageEnergyJ_;
    util::Joules machineEnergyJ_{0};
    util::Joules diskEnergyJ_{0};
    util::Joules netEnergyJ_{0};
    int diskBusy_ = 0;
    int netBusy_ = 0;
    sim::SimTime lastSync_ = 0;
};

} // namespace hw
} // namespace pcon

#endif // PCON_HW_MACHINE_H
