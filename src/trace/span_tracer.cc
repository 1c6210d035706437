#include "span_tracer.h"

#include "os/task.h"
#include "util/logging.h"

namespace pcon {
namespace trace {

SpanTracer::SpanTracer(os::Kernel &kernel,
                       core::ContainerManager &manager,
                       SpanCollector &collector, int machine)
    : kernel_(kernel), manager_(manager), collector_(collector),
      machine_(machine)
{
    manager_.onWindowCharge(
        [this](const core::WindowCharge &w) { chargeWindow(w); });
    manager_.onIoCharge(
        [this](const core::IoCharge &io) { chargeIo(io); });
    // The manager subscribed at its construction, before this tracer
    // could: its listener publishes the request's final windows
    // before completeRequest closes the spans.
    kernel_.requests().onComplete(
        [this](const os::RequestInfo &info) { completeRequest(info); });
    kernel_.setSpanProvider([this](os::RequestId id) -> std::uint64_t {
        // Untraced and completed requests have no state here.
        auto it = states_.find(id);
        if (it == states_.end())
            return NoSpan;
        // Prefer the span of a task of this request currently
        // on-core (the sender, when called from Socket::send).
        int cores = kernel_.machine().totalCores();
        const RequestState &st = it->second;
        for (int core = 0; core < cores; ++core) {
            os::Task *t = kernel_.runningTask(core);
            if (t == nullptr || t->context != id)
                continue;
            SpanId sp = linkedSpan(st, t->id);
            if (sp != NoSpan)
                return sp;
        }
        return st.current != NoSpan ? st.current : st.root;
    });
}

sim::SimTime
SpanTracer::now() const
{
    return kernel_.machine().simulation().now();
}

void
SpanTracer::trace(os::RequestId id)
{
    if (id == os::NoRequest || kernel_.requests().completed(id))
        return;
    requested_.insert(id);
    if (states_.count(id) == 0)
        createState(id);
}

bool
SpanTracer::tracing(os::RequestId id) const
{
    if (states_.count(id) != 0)
        return true;
    return kernel_.requests().completed(id) &&
           (all_ || requested_.count(id) != 0);
}

SpanTracer::RequestState *
SpanTracer::stateFor(os::RequestId id)
{
    if (id == os::NoRequest)
        return nullptr;
    auto it = states_.find(id);
    if (it != states_.end())
        return &it->second;
    // A completed request's state is gone; a hook that still carries
    // its id (a task outliving it, a stale tag) opens nothing.
    if (!all_ || kernel_.requests().completed(id))
        return nullptr;
    return &createState(id);
}

SpanTracer::RequestState &
SpanTracer::createState(os::RequestId id)
{
    RequestState st;
    st.root = collector_.rootOf(id);
    if (st.root == NoSpan) {
        // First tracer (cluster-wide) to see the request opens the
        // root at the request's arrival time.
        std::string name = "request";
        sim::SimTime at = now();
        if (kernel_.requests().live(id)) {
            const os::RequestInfo &info = kernel_.requests().info(id);
            name = info.type.empty() ? name : info.type;
            at = info.created;
        }
        st.root = openSpan(id, name, SpanKind::Root, NoSpan, at);
    }
    // Charges published before now went nowhere: a request traced
    // mid-flight gets its container's totals so far as one charge
    // (zeros for one traced from the start).
    if (const core::PowerContainer *c = manager_.container(id))
        collector_.charge(st.root, c->totalEnergyJ(), c->cpuTimeNs(),
                          util::Cycles{c->events().nonhaltCycles},
                          c->events().instructions);
    if (requestsTraced_ != nullptr)
        requestsTraced_->add();
    return states_.emplace(id, std::move(st)).first->second;
}

SpanId
SpanTracer::openSpan(os::RequestId request, const std::string &name,
                     SpanKind kind, SpanId parent, sim::SimTime at)
{
    SpanId id = collector_.open(request, machine_, name, kind, parent,
                                at);
    if (opened_ != nullptr)
        opened_->add();
    return id;
}

void
SpanTracer::closeSpan(SpanId id, sim::SimTime at)
{
    if (!collector_.span(id).open)
        return;
    collector_.close(id, at);
    if (closed_ != nullptr)
        closed_->add();
}

SpanId
SpanTracer::linkedSpan(const RequestState &st, os::TaskId task)
{
    for (const auto &[linked, span] : st.stages)
        if (linked == task)
            return span;
    return NoSpan;
}

void
SpanTracer::linkTask(RequestState &st, os::TaskId task, SpanId span)
{
    for (auto &[linked, stage] : st.stages) {
        if (linked == task) {
            stage = span;
            return;
        }
    }
    st.stages.emplace_back(task, span);
}

SpanId
SpanTracer::stageSpan(const os::Task &task, os::RequestId request,
                      RequestState &st)
{
    SpanId sp = linkedSpan(st, task.id);
    if (sp != NoSpan)
        return sp;
    // Lazy stage spans hang off the root; precise causal parents
    // (fork, segment receipt) are set by the dedicated hooks.
    sp = openSpan(request, task.name, SpanKind::Stage, st.root, now());
    linkTask(st, task.id, sp);
    return sp;
}

void
SpanTracer::chargeWindow(const core::WindowCharge &window)
{
    auto it = states_.find(window.request);
    if (it == states_.end())
        return;
    SpanId sp = stageSpan(*window.task, window.request, it->second);
    collector_.charge(sp, window.energy, window.cpuNs,
                      util::Cycles{window.delta.nonhaltCycles},
                      window.delta.instructions);
}

void
SpanTracer::chargeIo(const core::IoCharge &io)
{
    auto it = states_.find(io.request);
    if (it == states_.end())
        return;
    const RequestState &st = it->second;
    SpanId parent = st.current != NoSpan ? st.current : st.root;
    sim::SimTime end = now();
    sim::SimTime start =
        io.busyTime > 0 && io.busyTime <= end ? end - io.busyTime : end;
    SpanId sp = openSpan(io.request,
                         io.device == hw::DeviceKind::Disk ? "disk"
                                                           : "net",
                         SpanKind::Io, parent, start);
    collector_.charge(sp, io.energy, 0, util::Cycles{0}, 0);
    collector_.addIoBytes(sp, io.bytes);
    closeSpan(sp, end);
    if (ioSpans_ != nullptr)
        ioSpans_->add();
}

void
SpanTracer::onContextSwitch(int core, os::Task *prev, os::Task *next)
{
    (void)core;
    if (prev != nullptr) {
        RequestState *st = stateFor(prev->context);
        if (st != nullptr)
            st->current = stageSpan(*prev, prev->context, *st);
    }
    if (next != nullptr) {
        RequestState *st = stateFor(next->context);
        if (st != nullptr)
            st->current = stageSpan(*next, next->context, *st);
    }
}

void
SpanTracer::onContextRebind(os::Task &task, os::RequestId old_ctx,
                            os::RequestId new_ctx)
{
    // The old binding's stage ends here; the window the manager
    // closes at this rebind reaches it through its link.
    if (RequestState *st_old = stateFor(old_ctx)) {
        SpanId old_span = linkedSpan(*st_old, task.id);
        if (old_span != NoSpan)
            closeSpan(old_span, now());
    }
    // The hook fires before task.context is reassigned, so the new
    // stage span must be opened against new_ctx explicitly.
    RequestState *st_new = stateFor(new_ctx);
    if (st_new == nullptr)
        return;
    SpanId sp = linkedSpan(*st_new, task.id);
    if (sp == NoSpan || !collector_.span(sp).open) {
        sp = openSpan(new_ctx, task.name, SpanKind::Stage, st_new->root,
                      now());
        linkTask(*st_new, task.id, sp);
    }
    st_new->current = sp;
}

void
SpanTracer::onTaskExit(os::Task &task)
{
    // A task exiting on a core runs one last window, which the
    // manager closes at the switch-out after this hook: the link
    // still routes it to the closed span.
    auto it = states_.find(task.context);
    if (it == states_.end())
        return;
    SpanId sp = linkedSpan(it->second, task.id);
    if (sp != NoSpan)
        closeSpan(sp, now());
}

void
SpanTracer::onFork(os::Task &parent, os::Task &child)
{
    RequestState *st = stateFor(parent.context);
    if (st == nullptr)
        return;
    SpanId parent_span = stageSpan(parent, parent.context, *st);
    // The child inherited the parent's context, so its link is here.
    SpanId child_span = linkedSpan(*st, child.id);
    if (child_span != NoSpan && collector_.span(child_span).open) {
        // The child was already switched in during spawn; repoint
        // its lazily-rooted span at the forking stage.
        collector_.reparent(child_span, parent_span, SpanKind::Fork);
    } else {
        SpanId sp = openSpan(child.context, child.name,
                             SpanKind::Fork, parent_span, now());
        linkTask(*st, child.id, sp);
    }
    if (forkLinks_ != nullptr)
        forkLinks_->add();
}

void
SpanTracer::onSegmentReceived(os::Task &task,
                              const os::Segment &segment)
{
    RequestState *st = stateFor(segment.context);
    if (st == nullptr)
        return;
    SpanId sender = segment.stats.spanId;
    if (!collector_.valid(sender))
        return;
    bool cross = collector_.span(sender).machine != machine_;
    SpanKind kind = cross ? SpanKind::Remote : SpanKind::Stage;
    SpanId remote = cross ? sender : NoSpan;
    sim::SimTime t = now();

    SpanId linked = linkedSpan(*st, task.id);
    SpanId sp = NoSpan;
    if (linked != NoSpan && collector_.span(linked).open) {
        const Span &s = collector_.span(linked);
        if (s.openedAt == t && s.energyJ == util::Joules(0)) {
            // Span freshly opened by the rebind a moment ago: refine
            // its causal parent in place.
            sp = linked;
            collector_.reparent(sp, sender, kind, remote);
        } else {
            // Same-context receive (e.g. the dispatcher getting its
            // response back): the receipt starts a new stage.
            closeSpan(linked, t);
        }
    }
    if (sp == NoSpan) {
        sp = openSpan(segment.context, task.name, kind, sender, t);
        if (cross)
            collector_.reparent(sp, sender, kind, remote);
        linkTask(*st, task.id, sp);
    }
    st->current = sp;
    if (cross) {
        if (segment.stats.present)
            remoteLedger_.observe(segment.context, segment.stats);
        if (remoteLinks_ != nullptr)
            remoteLinks_->add();
    }
}

void
SpanTracer::completeRequest(const os::RequestInfo &info)
{
    auto it = states_.find(info.id);
    if (it == states_.end())
        return;
    // Every charge has already landed on its span. From here on the
    // request manager reports the id completed, so stateFor()
    // ignores it without this entry, and the task links go with it
    // (tasks may outlive the request).
    states_.erase(it);
    // Close every span this machine still has open for the request.
    // Only this request's spans are visited, so the cost does not
    // grow with run length.
    std::uint64_t visited = 0;
    for (SpanId id : collector_.requestSpans(info.id)) {
        ++visited;
        const Span &s = collector_.span(id);
        if (s.open && s.machine == machine_)
            closeSpan(id, info.completed);
    }
    if (completionVisits_ != nullptr)
        completionVisits_->add(visited);
}

void
SpanTracer::bindMetrics(telemetry::Registry &registry)
{
    opened_ = &registry.counter("trace.spans_opened");
    closed_ = &registry.counter("trace.spans_closed");
    forkLinks_ = &registry.counter("trace.fork_links");
    remoteLinks_ = &registry.counter("trace.remote_links");
    ioSpans_ = &registry.counter("trace.io_spans");
    requestsTraced_ = &registry.counter("trace.requests_traced");
    completionVisits_ =
        &registry.counter("trace.completion_span_visits");
    telemetry::Gauge &open_gauge = registry.gauge("trace.open_spans");
    telemetry::Gauge &total_gauge =
        registry.gauge("trace.spans_total");
    SpanCollector *collector = &collector_;
    registry.addCollector([collector, &open_gauge, &total_gauge] {
        open_gauge.set(static_cast<double>(collector->openCount()));
        total_gauge.set(static_cast<double>(collector->size()));
    });
}

} // namespace trace
} // namespace pcon
