#include "request_context.h"

#include "util/logging.h"

namespace pcon {
namespace os {

RequestId
RequestContextManager::create(const std::string &type, sim::SimTime now)
{
    RequestId id = nextId_++;
    RequestInfo info;
    info.id = id;
    info.type = type;
    info.created = now;
    auto [it, inserted] = contexts_.emplace(id, std::move(info));
    util::panicIf(!inserted, "duplicate request id");
    for (auto &fn : createListeners_)
        fn(it->second);
    return id;
}

void
RequestContextManager::complete(RequestId id, sim::SimTime now)
{
    util::panicIf(completed(id), "request ", id, " completed twice");
    auto it = contexts_.find(id);
    util::panicIf(it == contexts_.end(),
                  "complete() on unknown request ", id);
    it->second.done = true;
    it->second.completed = now;
    for (auto &fn : completeListeners_)
        fn(it->second);
    // By key: a listener may create requests, and a rehash would
    // invalidate `it` (the element itself stays put).
    contexts_.erase(id);
}

const RequestInfo &
RequestContextManager::info(RequestId id) const
{
    auto it = contexts_.find(id);
    util::panicIf(it == contexts_.end(), "info() on request ", id,
                  completed(id) ? ", which has completed"
                                : ", which was never created");
    return it->second;
}

bool
RequestContextManager::live(RequestId id) const
{
    return contexts_.find(id) != contexts_.end();
}

bool
RequestContextManager::completed(RequestId id) const
{
    if (id == NoRequest || id >= nextId_)
        return false;
    auto it = contexts_.find(id);
    return it == contexts_.end() || it->second.done;
}

} // namespace os
} // namespace pcon
