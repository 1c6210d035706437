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

SpanId
SpanCollector::open(os::RequestId request, int machine,
                    const std::string &name, SpanKind kind,
                    SpanId parent, sim::SimTime now)
{
    panicIf(request == os::NoRequest, "span without a request");
    panicIf(parent != NoSpan && !valid(parent),
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
    indexSpan(s);
    spans_.push_back(std::move(s));
    ++openCount_;
    if (observer_ != nullptr)
        observer_->onSpanOpened(spans_.back());
    return spans_.back().id;
}

void
SpanCollector::close(SpanId id, sim::SimTime now)
{
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
    Span &s = mutableSpan(id);
    panicIf(s.kind == SpanKind::Root, "cannot reparent a root span");
    panicIf(parent != NoSpan && !valid(parent),
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
    mutableSpan(id).ioBytes += bytes;
}

Span &
SpanCollector::mutableSpan(SpanId id)
{
    panicIf(!valid(id), "unknown span id ", id);
    return spans_[static_cast<std::size_t>(id) - 1];
}

const SpanCollector::RequestEntry *
SpanCollector::findEntry(os::RequestId request) const
{
    auto it = requests_.find(request);
    return it == requests_.end() ? nullptr : &it->second;
}

void
SpanCollector::indexSpan(const Span &span)
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
    auto machine = std::lower_bound(machines_.begin(), machines_.end(),
                                    span.machine);
    if (machine == machines_.end() || *machine != span.machine)
        machines_.insert(machine, span.machine);
}

SpanId
SpanCollector::rootOf(os::RequestId request) const
{
    const RequestEntry *entry = findEntry(request);
    return entry == nullptr ? NoSpan : entry->root;
}

std::vector<SpanId>
SpanCollector::requestSpans(os::RequestId request) const
{
    const RequestEntry *entry = findEntry(request);
    return entry == nullptr ? std::vector<SpanId>{} : entry->spans;
}

std::vector<os::RequestId>
SpanCollector::requests() const
{
    std::vector<os::RequestId> out;
    out.reserve(requests_.size());
    for (const auto &kv : requests_)
        out.push_back(kv.first);
    return out;
}

util::Joules
SpanCollector::requestEnergyJ(os::RequestId request) const
{
    util::Joules total{0};
    if (const RequestEntry *entry = findEntry(request))
        for (SpanId id : entry->spans)
            total += span(id).energyJ;
    return total;
}

util::Joules
SpanCollector::machineEnergyJ(os::RequestId request,
                              int machine) const
{
    util::Joules total{0};
    if (const RequestEntry *entry = findEntry(request)) {
        for (SpanId id : entry->spans) {
            const Span &s = span(id);
            if (s.machine == machine)
                total += s.energyJ;
        }
    }
    return total;
}

std::size_t
SpanCollector::depth(SpanId id) const
{
    std::size_t d = 0;
    for (SpanId p = span(id).parent; p != NoSpan;
         p = span(p).parent) {
        panicIf(d > spans_.size(), "span parent cycle");
        ++d;
    }
    return d;
}

std::vector<SpanId>
SpanCollector::criticalPath(os::RequestId request) const
{
    const RequestEntry *entry = findEntry(request);
    if (entry == nullptr)
        return {};
    SpanId last = NoSpan;
    sim::SimTime last_close = 0;
    std::size_t last_depth = 0;
    for (SpanId id : entry->spans) {
        const Span &s = span(id);
        if (s.open)
            continue;
        // Ties (several spans closed at the same instant — e.g. the
        // completion sweep) break leaf-ward, then to the smallest id
        // (the ascending scan), so the root never shadows the final
        // stage it merely outlives.
        std::size_t d = depth(s.id);
        if (last == NoSpan || s.closedAt > last_close ||
            (s.closedAt == last_close && d > last_depth)) {
            last = s.id;
            last_close = s.closedAt;
            last_depth = d;
        }
    }
    std::vector<SpanId> path;
    for (SpanId id = last; id != NoSpan; id = span(id).parent) {
        panicIf(path.size() > spans_.size(), "span parent cycle");
        path.push_back(id);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

void
SpanCollector::addSpan(const Span &span)
{
    panicIf(span.id != spans_.size() + 1,
            "non-dense span id in addSpan: ", span.id);
    panicIf(span.request == os::NoRequest, "span without a request");
    indexSpan(span);
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

} // namespace trace
} // namespace pcon
