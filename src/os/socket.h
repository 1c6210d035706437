/**
 * @file
 * Sockets with per-segment request-context tagging (Section 3.3).
 *
 * Every message carries its sender's request context, modeling the
 * new-TCP-option tag of the paper. Buffered data keeps *per-segment*
 * tags: on a persistent connection a second request's message can
 * arrive before the first is read, and the reader must inherit the
 * context of the data it actually reads. A "naive" mode in which the
 * socket carries only the most recent tag is available as an ablation
 * (it mis-attributes exactly as the paper warns).
 */

#ifndef PCON_OS_SOCKET_H
#define PCON_OS_SOCKET_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "os/request_context.h"
#include "sim/time.h"
#include "util/units.h"

namespace pcon {
namespace os {

class Kernel;
class Task;

/**
 * Per-request statistics piggybacked on cross-machine messages
 * (Section 3.4): cumulative runtime, cumulative energy, and the most
 * recent power of the sending side's container, so a dispatcher can
 * do comprehensive cross-machine accounting from response messages.
 */
struct RequestStatsTag
{
    /** True when the sending kernel attached statistics. */
    bool present = false;
    /** Cumulative on-CPU time, nanoseconds. */
    double cpuTimeNs = 0;
    /** Cumulative attributed energy. */
    util::Joules energyJ{0};
    /** Most recent power estimate. */
    util::Watts lastPowerW{0};
    /**
     * Sender-side causal span (trace::SpanId; 0 = none). Rides the
     * same piggyback channel as the statistics so a receiving span
     * tracer can stitch cross-machine child spans to their parent
     * (set via Kernel::setSpanProvider).
     */
    std::uint64_t spanId = 0;
};

/** One buffered message with its request-context tag. */
struct Segment
{
    double bytes = 0;
    RequestId context = NoRequest;
    /** Sender-side container statistics (cross-machine accounting). */
    RequestStatsTag stats{};
};

/**
 * One delivery a segment perturber asks for: the (possibly rewritten)
 * segment plus extra latency on top of the link's. Fault injection
 * uses this to drop (empty vector), duplicate, delay/reorder, or
 * stale-tag in-flight messages.
 */
struct SegmentDelivery
{
    sim::SimTime extraDelay = 0;
    Segment segment{};
};

/**
 * Rewrites one sent segment into the deliveries the network actually
 * makes. Installed per sending kernel (Kernel::setSegmentPerturber);
 * applies to every outbound segment of that kernel's sockets.
 */
using SegmentPerturber =
    std::function<std::vector<SegmentDelivery>(const Segment &)>;

/**
 * One endpoint of a connected socket pair. Endpoints are owned by the
 * kernel of the machine they live on; a pair may span two kernels
 * (machines), in which case the link latency applies to deliveries.
 *
 * Tasks use sockets through SendOp/RecvOp. Entities outside any
 * simulated machine (load clients, the cluster dispatcher front-end)
 * use send() with an explicit context tag and consume via
 * setDeliveryCallback().
 */
class Socket
{
  public:
    /** The other end of the connection. */
    Socket *peer() const { return peer_; }

    /** Kernel owning this endpoint. */
    Kernel &kernel() const { return *kernel_; }

    /** One-way delivery latency of the link. */
    sim::SimTime latency() const { return latency_; }

    /**
     * Send bytes to the peer with an explicit context tag. Tasks
     * normally send via SendOp (which tags with the task's bound
     * context); this entry point models client-side senders.
     */
    void send(double bytes, RequestId context);

    /**
     * Consume deliveries with a callback instead of a task reader
     * (client-side endpoints). Segments bypass the rx buffer.
     */
    void setDeliveryCallback(std::function<void(double, RequestId)> fn);

    /**
     * Like setDeliveryCallback but receives the whole segment,
     * including the piggybacked request statistics. Takes precedence
     * when both are set.
     */
    void setSegmentCallback(std::function<void(const Segment &)> fn);

    /** Buffered, unread segments (oldest first). */
    const std::deque<Segment> &buffered() const { return rx_; }

  private:
    friend class Kernel;

    /** Deliver one segment into this endpoint (post-latency). */
    void deliver(const Segment &segment);

    Socket *peer_ = nullptr;
    Kernel *kernel_ = nullptr;
    sim::SimTime latency_ = 0;
    std::deque<Segment> rx_;
    Task *waitingReader_ = nullptr;
    /** Most recently *arrived* tag (the naive mode's only state). */
    RequestId lastArrivedTag_ = NoRequest;
    std::function<void(double, RequestId)> deliveryCallback_;
    std::function<void(const Segment &)> segmentCallback_;
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_SOCKET_H
