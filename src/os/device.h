/**
 * @file
 * Peripheral I/O devices (disk, NIC) as FIFO service queues. A device
 * is busy (drawing active power in hw/) while servicing; completions
 * raise an interrupt that the kernel turns into an onIoComplete hook
 * and a task wakeup.
 */

#ifndef PCON_OS_DEVICE_H
#define PCON_OS_DEVICE_H

#include <cstdint>
#include <deque>
#include <functional>

#include "hw/machine.h"
#include "os/task.h"
#include "sim/time.h"

namespace pcon {
namespace os {

/** Service characteristics of one device. */
struct DeviceConfig
{
    /** Sustained transfer bandwidth, bytes per second. */
    double bytesPerSec = 100e6;
    /** Fixed per-operation latency (seek, interrupt, DMA setup). */
    sim::SimTime perOpLatency = sim::usec(100);
};

/**
 * FIFO device queue. Operations are serviced one at a time; the
 * machine-level device-busy flag is held for the whole span during
 * which the queue is non-empty.
 */
class IoDevice
{
  public:
    /** Completion callback: (task, bytes, service_time). */
    using CompletionFn =
        std::function<void(Task *, double, sim::SimTime)>;

    /**
     * @param machine Machine whose device power this drives.
     * @param kind Device class (Disk or Net).
     * @param cfg Service characteristics.
     * @param on_complete Invoked at each completion interrupt.
     */
    IoDevice(hw::Machine &machine, hw::DeviceKind kind,
             const DeviceConfig &cfg, CompletionFn on_complete);

    /** Enqueue an operation on behalf of a (blocked) task. */
    void submit(Task *task, double bytes);

    /**
     * Cumulative device busy time (sum of completed service spans).
     * OS-visible bookkeeping, used to form device-utilization metrics
     * for power model calibration.
     */
    sim::SimTime busyTime() const { return busyTimeNs_; }

    /** Cumulative bytes of completed operations, each truncated. */
    std::uint64_t completedBytes() const { return completedBytes_; }

    /** Device class. */
    hw::DeviceKind kind() const { return kind_; }

  private:
    struct PendingOp
    {
        Task *task;
        double bytes;
    };

    void startNext();
    void finishCurrent();

    hw::Machine &machine_;
    hw::DeviceKind kind_;
    DeviceConfig cfg_;
    CompletionFn onComplete_;
    std::deque<PendingOp> queue_;
    bool serving_ = false;
    sim::SimTime currentServiceTime_ = 0;
    sim::SimTime busyTimeNs_ = 0;
    std::uint64_t completedBytes_ = 0;
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_DEVICE_H
