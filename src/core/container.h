/**
 * @file
 * The per-request power container state (Section 3.3/3.5): cumulative
 * event counters, modeled energy, CPU time, and the most recent power
 * estimate for one request context. In the paper this is a 784-byte
 * kernel structure with locks and a reference count; the simulator is
 * single-threaded, so it needs neither: the ContainerManager creates
 * and retires each container explicitly.
 *
 * Layout (ISSUE 8 hot-path pass): the mutable ledger lives in a
 * LedgerStore — a structure-of-arrays keyed by slot, one column per
 * field — so the per-slice attribution loop walks contiguous memory
 * instead of pointer-chasing heap-scattered objects. PowerContainer
 * is the handle: it owns a slot for its lifetime and carries only the
 * cold identity fields (request id, type) inline. All
 * reads go through accessors; all writes go through the charge
 * methods the accounting engine uses, which keeps the floating-point
 * accumulation order identical to the old AoS layout (the golden
 * ledger fingerprints pin this byte-for-byte).
 */

#ifndef PCON_CORE_CONTAINER_H
#define PCON_CORE_CONTAINER_H

#include <cstdint>
#include <string>
#include <vector>

#include "hw/counters.h"
#include "os/request_context.h"
#include "sim/time.h"
#include "util/units.h"

namespace pcon {
namespace core {

class PowerContainer;

/**
 * Structure-of-arrays backing store for container ledgers. One
 * column per ledger field, indexed by slot; slots are recycled
 * through a free list when a container dies. Owned by the
 * ContainerManager (one store per kernel); the store must outlive
 * every PowerContainer carved from it.
 */
class LedgerStore
{
  public:
    LedgerStore() = default;
    LedgerStore(const LedgerStore &) = delete;
    LedgerStore &operator=(const LedgerStore &) = delete;

  private:
    friend class PowerContainer;

    /** Hand out a zeroed row, recycling freed slots first. */
    std::uint32_t
    acquire()
    {
        if (!freeSlots_.empty()) {
            std::uint32_t slot = freeSlots_.back();
            freeSlots_.pop_back();
            events_[slot] = hw::CounterSnapshot{};
            cpuEnergyJ_[slot] = util::Joules(0);
            ioEnergyJ_[slot] = util::Joules(0);
            cpuTimeNs_[slot] = 0;
            lastPowerW_[slot] = util::Watts(0);
            sampleCount_[slot] = 0;
            return slot;
        }
        events_.emplace_back();
        cpuEnergyJ_.emplace_back(0);
        ioEnergyJ_.emplace_back(0);
        cpuTimeNs_.push_back(0);
        lastPowerW_.emplace_back(0);
        sampleCount_.push_back(0);
        return static_cast<std::uint32_t>(events_.size() - 1);
    }

    void release(std::uint32_t slot) { freeSlots_.push_back(slot); }

    // The SoA columns. util strong types keep the units explicit
    // while costing nothing over a raw double column.
    std::vector<hw::CounterSnapshot> events_;
    std::vector<util::Joules> cpuEnergyJ_;
    std::vector<util::Joules> ioEnergyJ_;
    std::vector<double> cpuTimeNs_;
    std::vector<util::Watts> lastPowerW_;
    std::vector<std::uint64_t> sampleCount_;
    std::vector<std::uint32_t> freeSlots_;
};

/**
 * Accounting handle for one request context: cold identity inline,
 * hot ledger in the owning LedgerStore's columns.
 */
class PowerContainer
{
  public:
    /**
     * Carve a slot from `store` for this container's lifetime.
     * @param store Backing store; must outlive the container.
     * @param id Request this container accounts for (0 = background).
     * @param type Request type tag copied from the context manager.
     */
    PowerContainer(LedgerStore &store, os::RequestId id,
                   std::string type)
        : store_(&store), slot_(store.acquire()), id_(id),
          type_(std::move(type))
    {
    }

    ~PowerContainer() { store_->release(slot_); }

    PowerContainer(const PowerContainer &) = delete;
    PowerContainer &operator=(const PowerContainer &) = delete;

    /** Request this container accounts for (0 = background). */
    os::RequestId id() const { return id_; }

    /** Request type tag copied from the context manager. */
    const std::string &type() const { return type_; }

    /** Cumulative attributed hardware events. */
    const hw::CounterSnapshot &events() const
    {
        return store_->events_[slot_];
    }

    /** Modeled CPU/memory active energy attributed so far. */
    util::Joules cpuEnergyJ() const
    {
        return store_->cpuEnergyJ_[slot_];
    }

    /** Device (disk/NIC) energy attributed so far. */
    util::Joules ioEnergyJ() const
    {
        return store_->ioEnergyJ_[slot_];
    }

    /** Cumulative on-CPU (non-halt) time, nanoseconds. */
    double cpuTimeNs() const { return store_->cpuTimeNs_[slot_]; }

    /** Most recent modeled power while executing. */
    util::Watts lastPowerW() const
    {
        return store_->lastPowerW_[slot_];
    }

    /** Number of attribution samples folded in. */
    std::uint64_t sampleCount() const
    {
        return store_->sampleCount_[slot_];
    }

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
     * estimate. Accumulation order matches the old field-by-field
     * writes exactly.
     */
    void
    chargeCpuWindow(util::Joules energy, double cpu_ns,
                    const hw::CounterSnapshot &delta,
                    util::Watts power)
    {
        store_->cpuEnergyJ_[slot_] += energy;
        store_->cpuTimeNs_[slot_] += cpu_ns;
        store_->events_[slot_].accumulate(delta);
        store_->lastPowerW_[slot_] = power;
        ++store_->sampleCount_[slot_];
    }

    /** Attribute device (disk/NIC) energy from an I/O completion. */
    void chargeIo(util::Joules energy)
    {
        store_->ioEnergyJ_[slot_] += energy;
    }

  private:
    LedgerStore *store_;
    std::uint32_t slot_;
    os::RequestId id_ = os::NoRequest;
    std::string type_;
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
