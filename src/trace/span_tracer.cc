#include "span_tracer.h"

#include <algorithm>

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
        for (int core = 0; core < cores; ++core) {
            os::Task *t = kernel_.runningTask(core);
            if (t == nullptr || t->context != id)
                continue;
            auto ts = spanOfTask_.find(t->id);
            if (ts != spanOfTask_.end() &&
                collector_.span(ts->second).request == id)
                return ts->second;
        }
        const RequestState &st = it->second;
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
    if (states_.count(id) != 0)
        return;
    // stateFor only creates state in traceAll mode; force it once.
    bool saved = all_;
    all_ = true;
    stateFor(id);
    all_ = saved;
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
    // its id (a task outliving it, a stale tag) charges nothing.
    if (!all_ || kernel_.requests().completed(id))
        return nullptr;
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
    if (requestsTraced_ != nullptr)
        requestsTraced_->add();
    return &states_.emplace(id, st).first->second;
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

void
SpanTracer::linkTask(os::TaskId task, SpanId span)
{
    auto [it, fresh] = spanOfTask_.try_emplace(task, span);
    if (!fresh) {
        taskOfSpan_.erase(it->second);
        it->second = span;
    }
    taskOfSpan_[span] = task;
}

void
SpanTracer::unlinkTask(os::TaskId task)
{
    auto it = spanOfTask_.find(task);
    if (it == spanOfTask_.end())
        return;
    taskOfSpan_.erase(it->second);
    spanOfTask_.erase(it);
}

SpanId
SpanTracer::ensureTaskSpan(os::Task &task, RequestState &st)
{
    auto it = spanOfTask_.find(task.id);
    if (it != spanOfTask_.end()) {
        const Span &s = collector_.span(it->second);
        if (s.open && s.request == task.context)
            return it->second;
    }
    // Lazy stage spans hang off the root; precise causal parents
    // (fork, segment receipt) are set by the dedicated hooks.
    SpanId sp = openSpan(task.context, task.name, SpanKind::Stage,
                         st.root, now());
    linkTask(task.id, sp);
    return sp;
}

void
SpanTracer::chargeDelta(RequestState &st, os::RequestId id,
                        SpanId span)
{
    core::PowerContainer *c = manager_.container(id);
    if (c == nullptr)
        return;
    util::Joules energy = c->totalEnergyJ();
    double cpu_ns = c->cpuTimeNs();
    util::Cycles cycles{c->events().nonhaltCycles};
    double instructions = c->events().instructions;
    collector_.charge(span, energy - st.seenEnergyJ,
                      cpu_ns - st.seenCpuNs, cycles - st.seenCycles,
                      instructions - st.seenInstructions);
    st.seenEnergyJ = energy;
    st.seenCpuNs = cpu_ns;
    st.seenCycles = cycles;
    st.seenInstructions = instructions;
}

void
SpanTracer::onContextSwitch(int core, os::Task *prev, os::Task *next)
{
    (void)core;
    if (prev != nullptr) {
        RequestState *st = stateFor(prev->context);
        if (st != nullptr) {
            SpanId sp = ensureTaskSpan(*prev, *st);
            chargeDelta(*st, prev->context, sp);
            st->current = sp;
            if (exitPending_.erase(prev->id) != 0) {
                closeSpan(sp, now());
                unlinkTask(prev->id);
            }
        }
    }
    if (next != nullptr) {
        RequestState *st = stateFor(next->context);
        if (st != nullptr)
            st->current = ensureTaskSpan(*next, *st);
    }
}

void
SpanTracer::onContextRebind(os::Task &task, os::RequestId old_ctx,
                            os::RequestId new_ctx)
{
    RequestState *st_old = stateFor(old_ctx);
    if (st_old != nullptr) {
        auto it = spanOfTask_.find(task.id);
        if (it != spanOfTask_.end() &&
            collector_.span(it->second).request == old_ctx) {
            // The manager just closed the old binding's window; its
            // delta belongs to the stage that ends here.
            chargeDelta(*st_old, old_ctx, it->second);
            closeSpan(it->second, now());
            unlinkTask(task.id);
        }
    }
    // The hook fires before task.context is reassigned, so the new
    // stage span must be opened against new_ctx explicitly.
    RequestState *st_new = stateFor(new_ctx);
    if (st_new != nullptr) {
        auto it = spanOfTask_.find(task.id);
        if (it != spanOfTask_.end()) {
            const Span &s = collector_.span(it->second);
            if (s.open && s.request == new_ctx) {
                st_new->current = it->second;
                return;
            }
        }
        SpanId sp = openSpan(new_ctx, task.name, SpanKind::Stage,
                             st_new->root, now());
        linkTask(task.id, sp);
        st_new->current = sp;
    }
}

void
SpanTracer::onSamplingInterrupt(int core)
{
    os::Task *task = kernel_.runningTask(core);
    if (task == nullptr)
        return;
    RequestState *st = stateFor(task->context);
    if (st == nullptr)
        return;
    chargeDelta(*st, task->context, ensureTaskSpan(*task, *st));
}

void
SpanTracer::onIoComplete(hw::DeviceKind device, os::RequestId context,
                         sim::SimTime busy_time, double bytes)
{
    RequestState *st = stateFor(context);
    if (st == nullptr)
        return;
    SpanId parent = st->current != NoSpan ? st->current : st->root;
    sim::SimTime end = now();
    sim::SimTime start = busy_time > 0 && busy_time <= end
                             ? end - busy_time
                             : end;
    SpanId sp = openSpan(context,
                         device == hw::DeviceKind::Disk ? "disk"
                                                        : "net",
                         SpanKind::Io, parent, start);
    // The manager attributed the device energy in its own hook just
    // before this one; the delta lands on the I/O span.
    chargeDelta(*st, context, sp);
    collector_.addIoBytes(sp, bytes);
    closeSpan(sp, end);
    if (ioSpans_ != nullptr)
        ioSpans_->add();
}

void
SpanTracer::onTaskExit(os::Task &task)
{
    RequestState *st = stateFor(task.context);
    auto it = spanOfTask_.find(task.id);
    if (it == spanOfTask_.end())
        return;
    if (task.core >= 0) {
        // exitTask deschedules after this hook; the final window is
        // charged (and the span closed) at that context switch.
        exitPending_.insert(task.id);
        return;
    }
    if (st != nullptr)
        chargeDelta(*st, task.context, it->second);
    closeSpan(it->second, now());
    unlinkTask(task.id);
}

void
SpanTracer::onFork(os::Task &parent, os::Task &child)
{
    RequestState *st = stateFor(parent.context);
    if (st == nullptr)
        return;
    SpanId parent_span = ensureTaskSpan(parent, *st);
    auto it = spanOfTask_.find(child.id);
    if (it != spanOfTask_.end() &&
        collector_.span(it->second).open &&
        collector_.span(it->second).request == child.context) {
        // The child was already switched in during spawn; repoint
        // its lazily-rooted span at the forking stage.
        collector_.reparent(it->second, parent_span, SpanKind::Fork);
    } else {
        SpanId sp = openSpan(child.context, child.name,
                             SpanKind::Fork, parent_span, now());
        linkTask(child.id, sp);
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

    auto it = spanOfTask_.find(task.id);
    SpanId sp = NoSpan;
    if (it != spanOfTask_.end() &&
        collector_.span(it->second).open &&
        collector_.span(it->second).request == segment.context) {
        const Span &s = collector_.span(it->second);
        if (s.openedAt == t && s.energyJ == util::Joules(0)) {
            // Span freshly opened by the rebind a moment ago: refine
            // its causal parent in place.
            sp = it->second;
            collector_.reparent(sp, sender, kind, remote);
        } else {
            // Same-context receive (e.g. the dispatcher getting its
            // response back): the receipt starts a new stage.
            chargeDelta(*st, segment.context, it->second);
            closeSpan(it->second, t);
        }
    }
    if (sp == NoSpan) {
        sp = openSpan(segment.context, task.name, kind, sender, t);
        if (cross)
            collector_.reparent(sp, sender, kind, remote);
        linkTask(task.id, sp);
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
    const RequestState &st = it->second;
    // The ContainerManager (registered before this tracer on the
    // shared request manager) already moved the container to its
    // records; settle the residual against the record so the
    // request's spans on this machine sum to its ledger exactly.
    const std::vector<core::RequestRecord> &records =
        manager_.records();
    for (auto rit = records.rbegin(); rit != records.rend(); ++rit) {
        if (rit->id != info.id)
            continue;
        SpanId target = st.current != NoSpan ? st.current : st.root;
        collector_.charge(target,
                          rit->totalEnergyJ() - st.seenEnergyJ,
                          rit->cpuTimeNs - st.seenCpuNs,
                          util::Cycles{rit->events.nonhaltCycles} -
                              st.seenCycles,
                          rit->events.instructions -
                              st.seenInstructions);
        break;
    }
    // From here on the request manager reports the id completed, so
    // stateFor() ignores it without this entry.
    states_.erase(it);
    // Close every span this machine still has open for the request
    // and drop the task-span links (tasks may outlive the request).
    // Only this request's spans are visited; task links are found
    // through their span, so the cost does not grow with run length.
    std::uint64_t visited = 0;
    for (SpanId id : collector_.requestSpans(info.id)) {
        ++visited;
        auto link = taskOfSpan_.find(id);
        if (link != taskOfSpan_.end()) {
            exitPending_.erase(link->second);
            spanOfTask_.erase(link->second);
            taskOfSpan_.erase(link);
        }
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
