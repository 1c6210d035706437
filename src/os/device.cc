#include "device.h"

#include <utility>

#include "util/logging.h"

namespace pcon {
namespace os {

IoDevice::IoDevice(hw::Machine &machine, hw::DeviceKind kind,
                   const DeviceConfig &cfg, CompletionFn on_complete)
    : machine_(machine), kind_(kind), cfg_(cfg),
      onComplete_(std::move(on_complete))
{
    util::fatalIf(cfg.bytesPerSec <= 0,
                  "device bandwidth must be positive");
    util::fatalIf(cfg.perOpLatency < 0,
                  "device latency cannot be negative");
}

void
IoDevice::submit(Task *task, double bytes)
{
    util::panicIf(bytes < 0, "negative I/O size");
    queue_.push_back(PendingOp{task, bytes});
    if (!serving_)
        startNext();
}

void
IoDevice::startNext()
{
    util::panicIf(queue_.empty(), "startNext on empty device queue");
    serving_ = true;
    machine_.setDeviceBusy(kind_, true);
    const PendingOp &op = queue_.front();
    currentServiceTime_ = cfg_.perOpLatency +
        sim::secF(op.bytes / cfg_.bytesPerSec);
    machine_.simulation().schedule(currentServiceTime_,
                                   [this] { finishCurrent(); });
}

void
IoDevice::finishCurrent()
{
    util::panicIf(queue_.empty(), "completion with empty device queue");
    PendingOp op = queue_.front();
    queue_.pop_front();
    machine_.setDeviceBusy(kind_, false);
    serving_ = false;
    sim::SimTime service = currentServiceTime_;
    busyTimeNs_ += service;
    completedBytes_ += static_cast<std::uint64_t>(op.bytes);
    if (!queue_.empty())
        startNext();
    onComplete_(op.task, op.bytes, service);
}

} // namespace os
} // namespace pcon
