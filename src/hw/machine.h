/**
 * @file
 * The simulated multicore machine. Cores run task activity signatures
 * under per-core duty-cycle modulation; the machine keeps per-core
 * event counters and cumulative machine/package/device energy of the
 * hidden ground-truth power in closed form, so reading them is a pure
 * function of simulated time.
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
 * One machine in the simulation. Counters and power are
 * piecewise-constant-rate functions of time that change only when a
 * mutator changes a core's or a device's state. Each core, chip and
 * device keeps its counters or active energy as of its last change
 * plus the rate since, so a read returns base + rate x elapsed and
 * stores nothing: observers cannot perturb the run.
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

    /** Read the core's cumulative counters. */
    CounterSnapshot readCounters(int core) const;

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
    util::Joules machineEnergyJ() const;

    /** Cumulative package energy of one chip since start. */
    util::Joules packageEnergyJ(int chip) const;

    /** Cumulative energy of one device class since start. */
    util::Joules deviceEnergyJ(DeviceKind kind) const;

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
        /** Time of the core's last state change. */
        sim::SimTime since = 0;
        /** Counters as of `since`; they advance at constant rates. */
        CounterSnapshot counters{};
        /** Ground-truth active power, constant since `since`. */
        util::Watts activeW{0};
        /** See injectedNonhaltCycles(). */
        double injectedNonhaltCycles = 0.0;
    };

    /** Energy of a piecewise-constant active power, in closed form. */
    struct Integrator
    {
        /** Time of the last power change. */
        sim::SimTime since = 0;
        /** Active energy as of `since`. */
        util::Joules energyJ{0};
        /** Active power, constant since `since`. */
        util::Watts powerW{0};

        /** Active energy at `now` (>= since). */
        util::Joules
        at(sim::SimTime now) const
        {
            return energyJ + powerW * sim::toSimSeconds(now - since);
        }

        /** Move the base to `now`, before the power changes. */
        void fold(sim::SimTime now);
    };

    /** A core's counters at `now` (>= its last state change). */
    CounterSnapshot countersAt(int core, sim::SimTime now) const;

    /**
     * Move a core's counters and its chip's energy to now, before a
     * mutator changes the core's state.
     */
    void fold(int core);

    /**
     * Recompute a core's active power and its chip's power from the
     * current state, after a mutator changed it: the full sum over
     * the chip's cores in index order, plus maintenance when any is
     * busy, so chip power depends only on the current state.
     */
    void refresh(int core);

    /** Ground-truth active power of one core in its current state. */
    util::Watts coreActiveW(int core) const;

    void checkCore(int core) const;
    void checkChip(int chip) const;

    sim::Simulation &sim_;
    MachineConfig cfg_;
    /** Construction time, from which idle power accrues. */
    sim::SimTime start_;
    std::vector<CoreState> cores_;
    std::vector<Integrator> chips_;
    Integrator disk_;
    Integrator net_;
    int diskBusy_ = 0;
    int netBusy_ = 0;
};

} // namespace hw
} // namespace pcon

#endif // PCON_HW_MACHINE_H
