/**
 * @file
 * Power measurement instruments (Section 3.2 / Section 4 setup): the
 * SandyBridge-style on-chip package energy meter (~1 ms readings
 * delivered with ~1 ms lag) and the Wattsup-style wall meter (1 s
 * whole-machine readings delivered ~1.2 s late over USB). Both
 * integrate ground-truth energy over their reporting period and
 * deliver *delayed* samples — recovering that delay is exactly what
 * the cross-correlation alignment is for.
 */

#ifndef PCON_HW_POWER_METER_H
#define PCON_HW_POWER_METER_H

#include <deque>
#include <functional>
#include <vector>

#include "hw/machine.h"
#include "sim/rng.h"
#include "sim/simulation.h"

namespace pcon {
namespace hw {

/** What a meter physically measures. */
enum class MeterScope {
    /** Sum of all package energies (on-chip meter). */
    Package,
    /** Whole machine at the wall (Wattsup). */
    Machine,
};

/**
 * A periodic, delayed power meter. Every `period` it computes the
 * average power over the elapsed interval from cumulative ground-truth
 * energy, then delivers the sample to subscribers `delay` later.
 */
class PowerMeter
{
  public:
    /** One delivered measurement. */
    struct Sample
    {
        /** End of the physical measurement interval. */
        sim::SimTime intervalEnd;
        /** When software received the value (intervalEnd + delay). */
        sim::SimTime deliveredAt;
        /** Average power over the interval. */
        util::Watts watts;
    };

    using Subscriber = std::function<void(const Sample &)>;

    /**
     * Rewrites one physical measurement into the list of deliveries
     * software actually sees (fault injection: dropped, duplicated,
     * delayed, or quantized samples). Returning an empty vector drops
     * the sample entirely; `deliveredAt` of each returned sample must
     * be >= the original's `intervalEnd`.
     */
    using DeliveryPerturber =
        std::function<std::vector<Sample>(const Sample &)>;

    /**
     * @param machine Machine to measure.
     * @param scope Package sum or whole machine.
     * @param timing Reporting period and delivery delay.
     */
    PowerMeter(Machine &machine, MeterScope scope,
               const MeterConfig &timing);

    /** Begin periodic measurement at the current time. */
    void start();

    /** Stop measuring; pending deliveries still arrive. */
    void stop();

    /** Register a delivery callback. */
    void subscribe(Subscriber fn);

    /**
     * Install (or clear, with nullptr) the delivery perturber. At
     * most one is active; the fault injector owns this hook. Samples
     * a perturber drops never reach history() or subscribers — they
     * model measurements the meter never delivered.
     */
    void setDeliveryPerturber(DeliveryPerturber fn);

    /** All samples delivered so far, oldest first (bounded). */
    const std::deque<Sample> &history() const { return history_; }

    /** Truncate history to the most recent `keep` samples. */
    void trimHistory(std::size_t keep);

    /** Configured reporting period. */
    sim::SimTime period() const { return timing_.period; }

    /** Configured delivery delay. */
    sim::SimTime delay() const { return timing_.delay; }

    /** Measurement scope. */
    MeterScope scope() const { return scope_; }

    /**
     * Average power of `delta` energy spread over a `period`-long
     * interval — the conversion every tick performs. Audits against a
     * zero-length period, which would make every sample non-finite.
     * Static and public so the guard is unit-testable directly (the
     * constructor already rejects zero-period configs).
     */
    static util::Watts intervalWatts(util::Joules delta,
                                     util::SimSeconds period);

  private:
    void tick();
    void scheduleDelivery(const Sample &sample);
    util::Joules cumulativeEnergyJ();

    Machine &machine_;
    MeterScope scope_;
    MeterConfig timing_;
    sim::Rng noise_;
    bool running_ = false;
    sim::EventId pendingTick_ = sim::InvalidEventId;
    util::Joules lastEnergyJ_{0};
    std::deque<Sample> history_;
    std::vector<Subscriber> subscribers_;
    DeliveryPerturber perturber_;

    /** History cap; old samples are discarded beyond this. */
    static constexpr std::size_t maxHistory_ = 1 << 20;
};

} // namespace hw
} // namespace pcon

#endif // PCON_HW_POWER_METER_H
