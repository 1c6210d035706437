/**
 * @file
 * The per-request power container state (Section 3.3/3.5): cumulative
 * event counters, modeled energy, CPU time, and the most recent power
 * estimate for one request context. In the paper this is a 784-byte
 * kernel structure with locks and a reference count; the simulator is
 * single-threaded, so it needs neither: the ContainerManager creates
 * and retires each container explicitly.
 *
 * The ledger fields are private: reads go through accessors and
 * writes through the charge methods the accounting engine uses, so
 * every window is folded in one fixed floating-point accumulation
 * order (the golden ledger fingerprints pin it byte-for-byte).
 */

#ifndef PCON_CORE_CONTAINER_H
#define PCON_CORE_CONTAINER_H

#include <cstdint>
#include <string>

#include "hw/counters.h"
#include "os/request_context.h"
#include "sim/time.h"
#include "util/units.h"

namespace pcon {
namespace core {

/** Accounting ledger for one request context. */
class PowerContainer
{
  public:
    /**
     * @param id Request this container accounts for (0 = background).
     * @param type Request type tag copied from the context manager.
     */
    PowerContainer(os::RequestId id, std::string type)
        : id_(id), type_(std::move(type))
    {
    }

    /** Request this container accounts for (0 = background). */
    os::RequestId id() const { return id_; }

    /** Request type tag copied from the context manager. */
    const std::string &type() const { return type_; }

    /** Cumulative attributed hardware events. */
    const hw::CounterSnapshot &events() const { return events_; }

    /** Modeled CPU/memory active energy attributed so far. */
    util::Joules cpuEnergyJ() const { return cpuEnergyJ_; }

    /** Device (disk/NIC) energy attributed so far. */
    util::Joules ioEnergyJ() const { return ioEnergyJ_; }

    /** Cumulative on-CPU (non-halt) time, nanoseconds. */
    double cpuTimeNs() const { return cpuTimeNs_; }

    /** Most recent modeled power while executing. */
    util::Watts lastPowerW() const { return lastPowerW_; }

    /** Number of attribution samples folded in. */
    std::uint64_t sampleCount() const { return sampleCount_; }

    /** Total attributed energy (CPU + devices). */
    util::Joules totalEnergyJ() const
    {
        return cpuEnergyJ() + ioEnergyJ();
    }

    /**
     * Mean power over the request's execution: attributed energy per
     * second of on-CPU time (a request draws no CPU power while
     * blocked). Zero before any CPU time accrues.
     */
    util::Watts
    meanPowerW() const
    {
        if (cpuTimeNs() <= 0)
            return util::Watts(0);
        return cpuEnergyJ() / util::SimSeconds(cpuTimeNs() * 1e-9);
    }

    // --- mutation API (the accounting engine's write path) ---

    /**
     * Fold one closed attribution window into the ledger: modeled
     * energy, on-CPU time, the counter delta, and the window's power
     * estimate.
     */
    void
    chargeCpuWindow(util::Joules energy, double cpu_ns,
                    const hw::CounterSnapshot &delta,
                    util::Watts power)
    {
        cpuEnergyJ_ += energy;
        cpuTimeNs_ += cpu_ns;
        events_.accumulate(delta);
        lastPowerW_ = power;
        ++sampleCount_;
    }

    /** Attribute device (disk/NIC) energy from an I/O completion. */
    void chargeIo(util::Joules energy) { ioEnergyJ_ += energy; }

  private:
    os::RequestId id_ = os::NoRequest;
    std::string type_;
    hw::CounterSnapshot events_{};
    util::Joules cpuEnergyJ_{0};
    util::Joules ioEnergyJ_{0};
    double cpuTimeNs_ = 0;
    util::Watts lastPowerW_{0};
    std::uint64_t sampleCount_ = 0;
};

/**
 * Snapshot of a completed request, recorded at completion time for
 * the distribution/validation analyses (Figures 6, 7, 13).
 */
struct RequestRecord
{
    os::RequestId id = os::NoRequest;
    std::string type;
    /** Arrival and completion (dispatch-side response) times. */
    sim::SimTime created = 0;
    sim::SimTime completed = 0;
    /** Cumulative attributed hardware events. */
    hw::CounterSnapshot events{};
    /** Totals copied from the container at completion. */
    util::Joules cpuEnergyJ{0};
    util::Joules ioEnergyJ{0};
    double cpuTimeNs = 0;
    util::Watts meanPowerW{0};

    /** End-to-end response time. */
    sim::SimTime responseTime() const { return completed - created; }

    /** Total attributed energy. */
    util::Joules totalEnergyJ() const { return cpuEnergyJ + ioEnergyJ; }
};

} // namespace core
} // namespace pcon

#endif // PCON_CORE_CONTAINER_H
