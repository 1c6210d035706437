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

#include <cstddef>
#include <functional>
#include <type_traits>
#include <vector>

#include "os/request_context.h"
#include "sim/time.h"
#include "util/slab_arena.h"
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
 * FIFO of buffered segments over a kernel-owned slab pool (ISSUE 8
 * hot-path pass): push_back/pop_front recycle fixed-size nodes
 * through the pool's intrusive free list, so the per-message buffer
 * churn of a busy connection never touches the global allocator (the
 * former std::deque paid a heap block per burst). Node addresses are
 * stable for the node's lifetime; iteration is oldest-first. Nodes
 * die with the owning kernel's arena, so sockets need no drain-on-
 * destroy pass (Segment is trivially destructible — enforced below).
 */
class SegmentQueue
{
  public:
    /** One pooled node; lives in the owning kernel's arena. */
    struct Node
    {
        Segment seg{};
        Node *next = nullptr;
    };

    /** Bind the backing pool; must precede any push_back. */
    void bindPool(util::SlabPool<Node> &pool) { pool_ = &pool; }

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }

    /** Oldest buffered segment; undefined when empty. */
    const Segment &front() const { return head_->seg; }

    /** Buffer a copy of `segment` at the tail. */
    void
    push_back(const Segment &segment)
    {
        Node *node = pool_->allocate();
        node->seg = segment;
        node->next = nullptr;
        if (tail_ == nullptr)
            head_ = node;
        else
            tail_->next = node;
        tail_ = node;
        ++size_;
    }

    /** Drop the oldest segment, recycling its node. */
    void
    pop_front()
    {
        Node *node = head_;
        head_ = node->next;
        if (head_ == nullptr)
            tail_ = nullptr;
        --size_;
        pool_->release(node);
    }

    /** Forward const iterator, oldest segment first. */
    class const_iterator
    {
      public:
        explicit const_iterator(const Node *node) : node_(node) {}

        const Segment &operator*() const { return node_->seg; }
        const Segment *operator->() const { return &node_->seg; }

        const_iterator &
        operator++()
        {
            node_ = node_->next;
            return *this;
        }

        bool
        operator!=(const const_iterator &other) const
        {
            return node_ != other.node_;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return node_ == other.node_;
        }

      private:
        const Node *node_;
    };

    const_iterator begin() const { return const_iterator(head_); }
    const_iterator end() const { return const_iterator(nullptr); }

  private:
    util::SlabPool<Node> *pool_ = nullptr;
    Node *head_ = nullptr;
    Node *tail_ = nullptr;
    std::size_t size_ = 0;
};

static_assert(std::is_trivially_destructible_v<Segment>,
              "SegmentQueue skips per-node destruction; a Segment "
              "with a destructor would leak resources into the arena");

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

    /** Buffered, unread segments (oldest first; pooled nodes). */
    const SegmentQueue &buffered() const { return rx_; }

    /** Most recently *arrived* tag (the naive mode's only state). */
    RequestId lastArrivedTag() const { return lastArrivedTag_; }

  private:
    friend class Kernel;

    /** Deliver one segment into this endpoint (post-latency). */
    void deliver(const Segment &segment);

    Socket *peer_ = nullptr;
    Kernel *kernel_ = nullptr;
    sim::SimTime latency_ = 0;
    /** Node storage lives in the owning kernel's segment pool. */
    SegmentQueue rx_;
    Task *waitingReader_ = nullptr;
    RequestId lastArrivedTag_ = NoRequest;
    std::function<void(double, RequestId)> deliveryCallback_;
    std::function<void(const Segment &)> segmentCallback_;
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_SOCKET_H
