/**
 * @file
 * Request context identity and lifecycle (Section 3.3). A request
 * context is the unit the power-container facility accounts against;
 * it flows across processes via sockets, fork, and IPC. The manager
 * here owns identity, type tags, and lifecycle notifications; the
 * accounting state itself (the power container) lives in core/.
 */

#ifndef PCON_OS_REQUEST_CONTEXT_H
#define PCON_OS_REQUEST_CONTEXT_H

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace pcon {
namespace os {

/** Identifier of a request context; 0 means "no context". */
using RequestId = std::uint64_t;

/** The null context. */
constexpr RequestId NoRequest = 0;

/**
 * Static and lifecycle information about one live request context.
 * It lives only while the request does: the manager erases it once
 * the completion listeners have run.
 */
struct RequestInfo
{
    /** Unique id. */
    RequestId id = NoRequest;
    /** Workload-defined request type tag (e.g. "rsa-large"). */
    std::string type;
    /** Creation (arrival) time. */
    sim::SimTime created = 0;
    /** Completion time; meaningful when completed. */
    sim::SimTime completed = 0;
    /** True once complete() was called. */
    bool done = false;
};

/**
 * Issues request ids and broadcasts lifecycle events. The container
 * manager subscribes to create/complete to allocate and release
 * per-request accounting state.
 *
 * Only live requests are kept: complete() runs the completion
 * listeners and then erases the request's RequestInfo, so the table
 * holds the requests in flight, not every request ever issued. The
 * RequestInfo a listener receives dies when the call returns; a
 * listener that needs the type or the times after that copies them.
 */
class RequestContextManager
{
  public:
    using Listener = std::function<void(const RequestInfo &)>;

    /** Create a new context of the given type at time `now`. */
    RequestId create(const std::string &type, sim::SimTime now);

    /**
     * Mark a context complete at time `now`, notify the listeners,
     * then erase it. Panics on an id that is not live.
     */
    void complete(RequestId id, sim::SimTime now);

    /** Look up a live context; panics on any other id. */
    const RequestInfo &info(RequestId id) const;

    /** True while the id names a created, not yet erased context. */
    bool live(RequestId id) const;

    /**
     * True when the id was issued and complete() was called on it:
     * already inside the completion listeners, and ever after. False
     * for NoRequest and for ids not issued yet.
     */
    bool completed(RequestId id) const;

    /** Subscribe to context creation. */
    void onCreate(Listener fn) { createListeners_.push_back(fn); }

    /** Subscribe to context completion. */
    void onComplete(Listener fn) { completeListeners_.push_back(fn); }

    /** Number of ids issued so far, completed ones included. */
    std::size_t createdCount() const { return nextId_ - 1; }

    /** Number of live contexts (the size of the table). */
    std::size_t liveCount() const { return contexts_.size(); }

  private:
    RequestId nextId_ = 1;
    std::unordered_map<RequestId, RequestInfo> contexts_;
    std::vector<Listener> createListeners_;
    std::vector<Listener> completeListeners_;
};

} // namespace os
} // namespace pcon

#endif // PCON_OS_REQUEST_CONTEXT_H
