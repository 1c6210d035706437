#include "span.h"

#include <algorithm>

#include "util/logging.h"

namespace pcon {
namespace trace {

using util::panicIf;

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Root: return "root";
      case SpanKind::Stage: return "stage";
      case SpanKind::Fork: return "fork";
      case SpanKind::Remote: return "remote";
      case SpanKind::Io: return "io";
    }
    return "stage";
}

SpanKind
spanKindFromName(const std::string &name)
{
    if (name == "root")
        return SpanKind::Root;
    if (name == "stage")
        return SpanKind::Stage;
    if (name == "fork")
        return SpanKind::Fork;
    if (name == "remote")
        return SpanKind::Remote;
    if (name == "io")
        return SpanKind::Io;
    util::panic("unknown span kind '", name, "'");
}

SpanCollector::SpanCollector(SpanCollector &&other)
{
    util::LockGuard lock(other.mu_);
    spans_ = std::move(other.spans_);
    requests_ = std::move(other.requests_);
    openCount_ = other.openCount_;
    observer_ = other.observer_;
    other.spans_.clear();
    other.requests_.clear();
    other.openCount_ = 0;
    other.observer_ = nullptr;
}

SpanCollector &
SpanCollector::operator=(SpanCollector &&other)
{
    if (this == &other)
        return *this;
    // Lock ordering: source first, destination second, matching the
    // move ctor; collectors are only moved during single-threaded
    // parse/wiring phases, so no cross-order deadlock partner exists.
    util::LockGuard source(other.mu_);
    util::LockGuard dest(mu_);
    spans_ = std::move(other.spans_);
    requests_ = std::move(other.requests_);
    openCount_ = other.openCount_;
    observer_ = other.observer_;
    other.spans_.clear();
    other.requests_.clear();
    other.openCount_ = 0;
    other.observer_ = nullptr;
    return *this;
}

SpanId
SpanCollector::open(os::RequestId request, int machine,
                    const std::string &name, SpanKind kind,
                    SpanId parent, sim::SimTime now)
{
    util::LockGuard lock(mu_);
    panicIf(request == os::NoRequest, "span without a request");
    panicIf(parent != NoSpan && !validLocked(parent),
            "span parent out of range: ", parent);
    Span s;
    s.id = static_cast<SpanId>(spans_.size()) + 1;
    s.parent = parent;
    s.request = request;
    s.machine = machine;
    s.name = name;
    s.kind = kind;
    s.openedAt = now;
    s.open = true;
    indexLocked(s);
    spans_.push_back(std::move(s));
    ++openCount_;
    if (observer_ != nullptr)
        observer_->onSpanOpened(spans_.back());
    return spans_.back().id;
}

void
SpanCollector::close(SpanId id, sim::SimTime now)
{
    util::LockGuard lock(mu_);
    Span &s = mutableSpan(id);
    if (!s.open)
        return;
    s.open = false;
    s.closedAt = now < s.openedAt ? s.openedAt : now;
    --openCount_;
    if (observer_ != nullptr)
        observer_->onSpanClosed(s);
}

void
SpanCollector::reparent(SpanId id, SpanId parent, SpanKind kind,
                        SpanId remote_parent)
{
    util::LockGuard lock(mu_);
    Span &s = mutableSpan(id);
    panicIf(s.kind == SpanKind::Root, "cannot reparent a root span");
    panicIf(parent != NoSpan && !validLocked(parent),
            "reparent target out of range: ", parent);
    panicIf(parent == id, "span cannot parent itself");
    s.parent = parent;
    s.kind = kind;
    s.remoteParent = remote_parent;
}

void
SpanCollector::charge(SpanId id, util::Joules energy,
                      double cpu_time_ns, util::Cycles cycles,
                      double instructions)
{
    util::LockGuard lock(mu_);
    Span &s = mutableSpan(id);
    s.energyJ += energy;
    s.cpuTimeNs += cpu_time_ns;
    s.cycles += cycles;
    s.instructions += instructions;
    if (observer_ != nullptr)
        observer_->onSpanCharged(s, energy, cpu_time_ns);
}

void
SpanCollector::addIoBytes(SpanId id, double bytes)
{
    util::LockGuard lock(mu_);
    mutableSpan(id).ioBytes += bytes;
}

bool
SpanCollector::valid(SpanId id) const
{
    util::LockGuard lock(mu_);
    return validLocked(id);
}

bool
SpanCollector::validLocked(SpanId id) const
{
    return id >= 1 && id <= spans_.size();
}

const Span &
SpanCollector::span(SpanId id) const
{
    util::LockGuard lock(mu_);
    return spanLocked(id);
}

const Span &
SpanCollector::spanLocked(SpanId id) const
{
    panicIf(!validLocked(id), "unknown span id ", id);
    return spans_[static_cast<std::size_t>(id) - 1];
}

const util::ChunkedVector<Span> &
SpanCollector::spans() const
{
    util::LockGuard lock(mu_);
    return spans_;
}

std::size_t
SpanCollector::size() const
{
    util::LockGuard lock(mu_);
    return spans_.size();
}

std::size_t
SpanCollector::openCount() const
{
    util::LockGuard lock(mu_);
    return openCount_;
}

Span &
SpanCollector::mutableSpan(SpanId id)
{
    panicIf(!validLocked(id), "unknown span id ", id);
    return spans_[static_cast<std::size_t>(id) - 1];
}

const SpanCollector::RequestEntry *
SpanCollector::entryLocked(os::RequestId request) const
{
    auto it = requests_.find(request);
    return it == requests_.end() ? nullptr : &it->second;
}

void
SpanCollector::indexLocked(const Span &span)
{
    auto it = requests_.find(span.request);
    bool root = span.kind == SpanKind::Root;
    panicIf(root && it != requests_.end() && it->second.root != NoSpan,
            "second root span for request ", span.request);
    if (it == requests_.end())
        it = requests_.emplace(span.request, RequestEntry{}).first;
    if (root)
        it->second.root = span.id;
    it->second.spans.push_back(span.id);
}

SpanId
SpanCollector::rootOf(os::RequestId request) const
{
    util::LockGuard lock(mu_);
    const RequestEntry *entry = entryLocked(request);
    return entry == nullptr ? NoSpan : entry->root;
}

std::vector<SpanId>
SpanCollector::requestSpans(os::RequestId request) const
{
    util::LockGuard lock(mu_);
    const RequestEntry *entry = entryLocked(request);
    return entry == nullptr ? std::vector<SpanId>{} : entry->spans;
}

std::vector<SpanId>
SpanCollector::children(SpanId id) const
{
    util::LockGuard lock(mu_);
    std::vector<SpanId> out;
    for (const Span &s : spans_)
        if (s.parent == id)
            out.push_back(s.id);
    return out;
}

std::vector<os::RequestId>
SpanCollector::requests() const
{
    util::LockGuard lock(mu_);
    std::vector<os::RequestId> out;
    out.reserve(requests_.size());
    for (const auto &kv : requests_)
        out.push_back(kv.first);
    return out;
}

util::Joules
SpanCollector::requestEnergyJ(os::RequestId request) const
{
    util::LockGuard lock(mu_);
    util::Joules total{0};
    if (const RequestEntry *entry = entryLocked(request))
        for (SpanId id : entry->spans)
            total += spanLocked(id).energyJ;
    return total;
}

util::Joules
SpanCollector::machineEnergyJ(os::RequestId request,
                              int machine) const
{
    util::LockGuard lock(mu_);
    util::Joules total{0};
    if (const RequestEntry *entry = entryLocked(request)) {
        for (SpanId id : entry->spans) {
            const Span &s = spanLocked(id);
            if (s.machine == machine)
                total += s.energyJ;
        }
    }
    return total;
}

std::vector<int>
SpanCollector::machines() const
{
    util::LockGuard lock(mu_);
    std::vector<int> out;
    for (const Span &s : spans_)
        if (std::find(out.begin(), out.end(), s.machine) == out.end())
            out.push_back(s.machine);
    std::sort(out.begin(), out.end());
    return out;
}

std::size_t
SpanCollector::depthLocked(SpanId id) const
{
    std::size_t d = 0;
    for (SpanId p = spanLocked(id).parent; p != NoSpan;
         p = spanLocked(p).parent) {
        panicIf(d > spans_.size(), "span parent cycle");
        ++d;
    }
    return d;
}

std::vector<SpanId>
SpanCollector::criticalPath(os::RequestId request) const
{
    util::LockGuard lock(mu_);
    const RequestEntry *entry = entryLocked(request);
    if (entry == nullptr)
        return {};
    SpanId last = NoSpan;
    sim::SimTime last_close = 0;
    std::size_t last_depth = 0;
    for (SpanId id : entry->spans) {
        const Span &s = spanLocked(id);
        if (s.open)
            continue;
        // Ties (several spans closed at the same instant — e.g. the
        // completion sweep) break leaf-ward, then to the smallest id
        // (the ascending scan), so the root never shadows the final
        // stage it merely outlives.
        std::size_t d = depthLocked(s.id);
        if (last == NoSpan || s.closedAt > last_close ||
            (s.closedAt == last_close && d > last_depth)) {
            last = s.id;
            last_close = s.closedAt;
            last_depth = d;
        }
    }
    std::vector<SpanId> path;
    for (SpanId id = last; id != NoSpan; id = spanLocked(id).parent) {
        panicIf(path.size() > spans_.size(), "span parent cycle");
        path.push_back(id);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

void
SpanCollector::addSpan(const Span &span)
{
    util::LockGuard lock(mu_);
    panicIf(span.id != spans_.size() + 1,
            "non-dense span id in addSpan: ", span.id);
    panicIf(span.request == os::NoRequest, "span without a request");
    indexLocked(span);
    spans_.push_back(span);
    if (span.open)
        ++openCount_;
    if (observer_ != nullptr) {
        // Reload parity with the live path: opened (totals included),
        // then closed when the dump recorded a finished span.
        observer_->onSpanOpened(spans_.back());
        if (!span.open)
            observer_->onSpanClosed(spans_.back());
    }
}

void
SpanCollector::setObserver(SpanObserver *observer)
{
    util::LockGuard lock(mu_);
    observer_ = observer;
}

} // namespace trace
} // namespace pcon
